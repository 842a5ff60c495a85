"""Set-function value oracles on the Boolean cube.

Concrete families: graph cut functions, multilinear polynomials and
modular functions.  Every oracle is normalized so the all-zero point
evaluates to exactly 0; the raw value at the origin is kept in ``offset``
so results can be translated back.

Also holds the two instance file formats: a weighted edge list for graphs
and a term list for multilinear polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, check_capacity

SUBMODULARITY_TOL = 1e-9
CUBE_CHUNK = 1 << 14


class SubmodularOracle:
    """Deterministic value oracle f: {0,1}^n -> R with f(0) = 0.

    Wraps a raw evaluator.  The raw value at the origin is stored as
    ``offset`` and subtracted from every evaluation.  The name promises
    nothing: instances built from arbitrary polynomials need not be
    submodular; use :func:`is_submodular_bruteforce` to check.
    """

    def __init__(self, n: int, raw, name: str = "callback"):
        if n < 1:
            raise ValueError(f"oracle dimension must be >= 1, got {n}")
        self.n = int(n)
        self._raw = raw
        self.name = name
        self.offset = float(raw(np.zeros(self.n)))
        # set by subclasses that can prove f == 0 structurally
        self.trivially_zero = False

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected point of dimension {self.n}, got shape {x.shape}")
        return float(self._raw(x)) - self.offset

    __call__ = value

    def chain_values(self, order) -> np.ndarray:
        """Values along the prefix chain of ``order``: f(0), f(e_{o0}), ..., f(1).

        Generic path costs n oracle calls (f(0) is 0 by normalization);
        subclasses override with closed forms.
        """
        order = np.asarray(order, dtype=int)
        x = np.zeros(self.n)
        out = np.empty(self.n + 1)
        out[0] = 0.0
        for i, j in enumerate(order):
            x[j] = 1.0
            out[i + 1] = self.value(x)
        return out

    def values_at(self, bits) -> np.ndarray:
        """Values at the rows of a boolean (k, n) block; subclasses batch this."""
        return np.array([self.value(row) for row in bits])

    def values_on_cube(self) -> np.ndarray:
        """All 2^n values indexed by bitmask (bit i <-> variable i). Guarded."""
        check_capacity("cube enumeration", self.n)
        return np.concatenate([self.values_at(bits) for bits in cube_chunks(self.n)])

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n} name={self.name!r}>"


def cube_chunks(n: int):
    """{0,1}^n as boolean (k, n) blocks of CUBE_CHUNK rows, in bitmask order.

    Row m of the concatenated blocks is the point with x_i = bit i of m.
    Guarded when the first block is requested.
    """
    check_capacity("brute force", n)
    total = 1 << n
    cols = np.arange(n, dtype=np.uint32)
    for lo in range(0, total, CUBE_CHUNK):
        masks = np.arange(lo, min(lo + CUBE_CHUNK, total), dtype=np.uint32)
        yield ((masks[:, None] >> cols) & 1).astype(bool)


# ---------------------------------------------------------------------------
# graph cuts


@dataclass
class Graph:
    """Undirected weighted graph; edges as 0-based (i, j, w) with i < j."""

    n: int
    edges: list

    def __post_init__(self):
        canon = {}
        for i, j, w in self.edges:
            i, j = int(i), int(j)
            if i == j:
                raise ModelError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ModelError(f"edge ({i},{j}) outside vertex range 0..{self.n - 1}")
            if i > j:
                i, j = j, i
            canon[(i, j)] = canon.get((i, j), 0.0) + float(w)
        self.edges = [(i, j, w) for (i, j), w in sorted(canon.items())]

    @property
    def m(self) -> int:
        return len(self.edges)

    def weight_matrix(self) -> np.ndarray:
        w = np.zeros((self.n, self.n))
        for i, j, wij in self.edges:
            w[i, j] += wij
            w[j, i] += wij
        return w


class GraphCutOracle(SubmodularOracle):
    """Cut function of a nonnegatively weighted graph.

    f(x) = sum_e w_e (x_i + x_j - 2 x_i x_j); submodular for w >= 0.
    """

    def __init__(self, graph: Graph):
        for i, j, w in graph.edges:
            if w < 0:
                raise ModelError(f"negative cut weight {w} on edge ({i},{j})")
        self.graph = graph
        self._ei = np.array([e[0] for e in graph.edges], dtype=int)
        self._ej = np.array([e[1] for e in graph.edges], dtype=int)
        self._ew = np.array([e[2] for e in graph.edges], dtype=float)
        self._wmat = graph.weight_matrix()
        self._deg = self._wmat.sum(axis=1)
        super().__init__(graph.n, self._cut_raw, name="cut")

    def _cut_raw(self, x):
        xi = x[self._ei]
        xj = x[self._ej]
        return float(np.dot(self._ew, xi + xj - 2.0 * xi * xj))

    def chain_values(self, order) -> np.ndarray:
        order = np.asarray(order, dtype=int)
        # marginal gain of adding v to prefix S: deg(v) - 2 * w(v, S)
        perm_block = self._wmat[np.ix_(order, order)]
        inner = np.tril(perm_block, -1).sum(axis=1)
        gains = self._deg[order] - 2.0 * inner
        out = np.empty(self.n + 1)
        out[0] = 0.0
        np.cumsum(gains, out=out[1:])
        return out

    def values_at(self, bits) -> np.ndarray:
        crossing = bits[:, self._ei] ^ bits[:, self._ej]
        return crossing @ self._ew


def cut_oracle(graph: Graph) -> GraphCutOracle:
    """Cut-function oracle of a nonnegatively weighted graph."""
    return GraphCutOracle(graph)


# ---------------------------------------------------------------------------
# multilinear polynomials


class MultilinearFunction:
    """Multilinear polynomial sum_k a_k prod_{j in A_k} x_j.

    Supports are nonempty subsets of {0..n-1}; duplicates are merged by
    summing coefficients, and exact zero coefficients are dropped.  With
    nonempty supports the value at the origin is 0, so no constant term
    can hide here.
    """

    def __init__(self, n: int, terms):
        if n < 1:
            raise ValueError(f"polynomial dimension must be >= 1, got {n}")
        self.n = int(n)
        merged = {}
        for coef, support in terms:
            support = frozenset(int(j) for j in support)
            if not support:
                raise ModelError("constant terms (empty supports) are not allowed")
            if any(j < 0 or j >= n for j in support):
                raise ModelError(f"support {sorted(support)} outside variable range 0..{n - 1}")
            merged[support] = merged.get(support, 0.0) + float(coef)
        self.terms = [
            (a, s)
            for s, a in sorted(merged.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
            if a != 0.0
        ]

    @property
    def degree(self) -> int:
        return max((len(s) for _, s in self.terms), default=0)

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected point of dimension {self.n}, got shape {x.shape}")
        total = 0.0
        for a, support in self.terms:
            prod = 1.0
            for j in support:
                prod *= x[j]
            total += a * prod
        return total

    def __repr__(self):
        return f"<MultilinearFunction n={self.n} terms={len(self.terms)} degree={self.degree}>"


class MultilinearOracle(SubmodularOracle):
    """Raw value oracle of a multilinear polynomial (not necessarily submodular)."""

    def __init__(self, poly: MultilinearFunction):
        self.poly = poly
        self._coefs = np.array([a for a, _ in poly.terms], dtype=float)
        supports = [sorted(s) for _, s in poly.terms]
        width = max((len(s) for s in supports), default=1)
        # padded support matrix; -1 entries point at a sentinel position
        pad = np.full((max(len(supports), 1), width), -1, dtype=int)
        for k, s in enumerate(supports):
            pad[k, : len(s)] = s
        self._pad = pad
        self._supmasks = np.array(
            [sum(1 << j for j in s) for s in supports], dtype=np.int64
        )
        self._bitvals = 1 << np.arange(poly.n, dtype=np.int64)
        super().__init__(poly.n, poly.evaluate, name="multilinear")
        self.trivially_zero = not poly.terms

    def chain_values(self, order) -> np.ndarray:
        order = np.asarray(order, dtype=int)
        out = np.zeros(self.n + 1)
        if self._coefs.size == 0:
            return out
        pos = np.empty(self.n + 1, dtype=int)
        pos[order] = np.arange(1, self.n + 1)
        pos[-1] = 0  # sentinel for padding
        # a term switches on once its whole support is in the prefix
        activate = pos[self._pad].max(axis=1)
        increments = np.zeros(self.n + 1)
        np.add.at(increments, activate, self._coefs)
        np.cumsum(increments, out=out)
        out[0] = 0.0
        return out

    def values_at(self, bits) -> np.ndarray:
        masks = bits @ self._bitvals
        vals = np.zeros(masks.size)
        for a, m in zip(self._coefs, self._supmasks):
            vals += a * ((masks & m) == m)
        return vals


def multilinear_oracle(poly: MultilinearFunction) -> MultilinearOracle:
    """Value oracle evaluating a multilinear polynomial on the cube."""
    return MultilinearOracle(poly)


def modular_oracle(weights) -> SubmodularOracle:
    """Modular (additive) function x -> c . x."""
    c = np.asarray(weights, dtype=float).copy()

    class _Modular(SubmodularOracle):
        def chain_values(self, order):
            out = np.empty(self.n + 1)
            out[0] = 0.0
            np.cumsum(c[np.asarray(order, dtype=int)], out=out[1:])
            return out

        def values_at(self, bits):
            return bits @ c

    oracle = _Modular(c.size, lambda x: float(np.dot(c, x)), name="modular")
    oracle.weights = c
    oracle.trivially_zero = bool(np.all(c == 0.0))
    return oracle


def zero_oracle(n: int) -> SubmodularOracle:
    """The identically-zero function, used as a trivial decomposition part."""
    return modular_oracle(np.zeros(n))


# ---------------------------------------------------------------------------
# submodular-supermodular decompositions


@dataclass
class SSFunction:
    """Difference target f = f1 - f2 with both parts submodular and normalized.

    ``level`` selects the geometry the cut machinery works against:
    1 for the hypograph {(x, t): f(x) >= t} of an objective,
    0 for the superlevel set {x: f(x) >= 0} of a constraint.
    """

    f1: SubmodularOracle
    f2: SubmodularOracle
    level: int = 1

    def __post_init__(self):
        if self.f1.n != self.f2.n:
            raise ValueError(f"part dimensions differ: {self.f1.n} vs {self.f2.n}")
        if self.level not in (0, 1):
            raise ValueError(f"level must be 0 or 1, got {self.level}")

    @property
    def n(self) -> int:
        return self.f1.n

    def value(self, x) -> float:
        return self.f1.value(x) - self.f2.value(x)


def ss_decompose(poly: MultilinearFunction, level: int = 1) -> SSFunction:
    """Sign-split a multilinear polynomial into a difference of submodular parts.

    Terms with negative coefficients form f1, negated positive terms form
    f2; each part is a nonpositive-coefficient multilinear polynomial and
    hence submodular.  f1 - f2 reproduces the input exactly on the cube.
    """
    neg = MultilinearFunction(poly.n, [(a, s) for a, s in poly.terms if a < 0])
    pos = MultilinearFunction(poly.n, [(-a, s) for a, s in poly.terms if a > 0])
    return SSFunction(multilinear_oracle(neg), multilinear_oracle(pos), level=level)


# ---------------------------------------------------------------------------
# brute-force submodularity check


def is_submodular_bruteforce(oracle: SubmodularOracle, tol: float = SUBMODULARITY_TOL) -> bool:
    """Check f(x) + f(y) >= f(x | y) + f(x & y) over all 4^n pairs. Guarded."""
    vals = oracle.values_on_cube()
    size = vals.size
    ymasks = np.arange(size, dtype=np.int64)
    for xmask in range(size):
        join = vals[xmask | ymasks]
        meet = vals[xmask & ymasks]
        if np.any(vals[xmask] + vals - join - meet < -tol):
            return False
    return True


# ---------------------------------------------------------------------------
# instance files
#
# Graph format: header "n m", then m lines "i j w" with 1-based endpoints.
# Polynomial format: header "n K", then K lines "a_k j1 j2 ... jd" with
# 1-based variable indices.


def read_graph(path) -> Graph:
    tokens = _token_lines(path)
    if not tokens:
        raise ModelError(f"{path}: empty graph file")
    header = tokens[0]
    if len(header) != 2:
        raise ModelError(f"{path}: graph header must be 'n m', got {header}")
    n, m = int(header[0]), int(header[1])
    body = tokens[1:]
    if len(body) != m:
        raise ModelError(f"{path}: expected {m} edge lines, found {len(body)}")
    edges = []
    for line in body:
        if len(line) != 3:
            raise ModelError(f"{path}: edge line must be 'i j w', got {line}")
        i, j, w = int(line[0]), int(line[1]), float(line[2])
        if not (1 <= i <= n and 1 <= j <= n):
            raise ModelError(f"{path}: edge ({i},{j}) outside 1..{n}")
        edges.append((i - 1, j - 1, w))
    return Graph(n, edges)


def write_graph(graph: Graph, path) -> None:
    lines = [f"{graph.n} {graph.m}"]
    for i, j, w in graph.edges:
        lines.append(f"{i + 1} {j + 1} {w:.12g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_polynomial(path) -> MultilinearFunction:
    tokens = _token_lines(path)
    if not tokens:
        raise ModelError(f"{path}: empty polynomial file")
    header = tokens[0]
    if len(header) != 2:
        raise ModelError(f"{path}: polynomial header must be 'n K', got {header}")
    n, k = int(header[0]), int(header[1])
    body = tokens[1:]
    if len(body) != k:
        raise ModelError(f"{path}: expected {k} term lines, found {len(body)}")
    terms = []
    for line in body:
        if len(line) < 2:
            raise ModelError(f"{path}: term line needs a coefficient and >= 1 index, got {line}")
        coef = float(line[0])
        idx = [int(tok) for tok in line[1:]]
        if any(j < 1 or j > n for j in idx):
            raise ModelError(f"{path}: term indices {idx} outside 1..{n}")
        terms.append((coef, [j - 1 for j in idx]))
    return MultilinearFunction(n, terms)


def write_polynomial(poly: MultilinearFunction, path) -> None:
    lines = [f"{poly.n} {len(poly.terms)}"]
    for a, support in poly.terms:
        idx = " ".join(str(j + 1) for j in sorted(support))
        lines.append(f"{a:.12g} {idx}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _token_lines(path) -> list:
    out = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                out.append(line.split())
    return out
