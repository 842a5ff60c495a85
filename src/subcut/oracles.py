"""Set functions on the Boolean cube, all of them multilinear polynomials.

A :class:`MultilinearFunction` is the value oracle the cut machinery
works with: it gives values at points, along prefix chains and on the
whole cube.  Every table over the cube is one flat (2^n,) vector whose
entry m is the value at x_i = bit i of m; only :class:`CubeBasis`
computes it in two halves, and its ``least`` gives the least entry by
blocks of the cube without holding the table.  Graph cut functions are
the degree-2 case (:func:`cut_polynomial`), and :func:`ss_decompose`
leaves them whole as the submodular part.  Supports are nonempty, so
every function is 0 at the origin.

Also holds the two instance file formats: a weighted edge list for graphs
and a term list for multilinear polynomials.  :class:`Graph` exists only
for the edge-list files and the graph generators; a loaded graph is its
cut polynomial from then on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, check_capacity

LEAST_BLOCK = 1 << 15  # table entries per block of CubeBasis.least


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


def cut_polynomial(graph: Graph) -> MultilinearFunction:
    """The cut function of a nonnegatively weighted graph as a multilinear polynomial.

    The sum over edges of w x_i + w x_j - 2w x_i x_j: each degree-1
    coefficient is its vertex's weighted degree summed in edge order.
    Edges of weight 0 leave no term; a negative weight raises ModelError,
    since the cut function is submodular only for w >= 0.
    """
    degree, pairs = [0.0] * graph.n, []
    for i, j, w in graph.edges:
        if w < 0:
            raise ModelError(f"negative cut weight {w} on edge ({i},{j})")
        degree[i] += w
        degree[j] += w
        pairs.append((-2.0 * w, (i, j)))
    return MultilinearFunction(graph.n, [(d, (v,)) for v, d in enumerate(degree)] + pairs)


# ---------------------------------------------------------------------------
# multilinear polynomials


class MultilinearFunction:
    """Multilinear polynomial f(x) = sum_k a_k prod_{j in A_k} x_j on {0,1}^n.

    Supports are nonempty subsets of {0..n-1}; duplicates are merged by
    summing coefficients, and exact zero coefficients are dropped.  A
    frozenset support is kept as given, so its members must be ints; any
    other support is converted with ``int``.  With nonempty supports
    f(0) = 0, so no constant term can hide here.  A polynomial need not be
    submodular; :func:`submodular_by_sign` can certify that it is.  Chain
    and cube values are sums of coefficients, so they are exact whenever
    the coefficients are integers.
    """

    def __init__(self, n: int, terms):
        if n < 1:
            raise ValueError(f"polynomial dimension must be >= 1, got {n}")
        self.n = int(n)
        merged = {}
        for coef, support in terms:
            if type(support) is not frozenset:
                support = frozenset(map(int, support))
            merged[support] = merged.get(support, 0.0) + float(coef)
        order = {s: (len(s), sorted(s)) for s in merged}  # by degree, then by sorted members
        for size, members in order.values():
            if not size:
                raise ModelError("constant terms (empty supports) are not allowed")
            if members[0] < 0 or members[-1] >= n:
                raise ModelError(f"support {members} outside variable range 0..{n - 1}")
        self.terms = [(merged[s], s) for s in sorted(merged, key=order.__getitem__) if merged[s] != 0.0]

    @property
    def degree(self) -> int:
        return max((len(s) for _, s in self.terms), default=0)

    @property
    def trivially_zero(self) -> bool:
        return not self.terms

    def value(self, x) -> float:
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

    @functools.cached_property
    def _padded_terms(self):
        """Coefficients and the padded supports, one column per term, -1 pointing at a sentinel position.

        Row i holds each term's i-th variable, so the activation positions
        are a max over the short first axis of a (k, width, terms) gather.
        Built on the first chain evaluation only: cut validation tables
        one residual polynomial per cut and never walks its chains.
        """
        supports = [sorted(s) for _, s in self.terms]
        width = max((len(s) for s in supports), default=1)
        pad = np.full((width, max(len(supports), 1)), -1, dtype=int)
        for k, s in enumerate(supports):
            pad[: len(s), k] = s
        return np.array([a for a, _ in self.terms], dtype=float), pad

    def chain_values(self, order) -> np.ndarray:
        """Values along the prefix chain of ``order``: f(0), f(e_{o0}), ..., f(1).

        ``order`` may also be a (k, n) block of orders, which gives one such
        row of n + 1 values per order.
        """
        order = np.asarray(order, dtype=int)
        orders = order.reshape(-1, self.n)
        out = np.zeros((orders.shape[0], self.n + 1))
        if self.terms:
            coefs, pad = self._padded_terms
            rows = np.arange(orders.shape[0])[:, None]
            # position of each variable in its order; the last column (0) is the padding sentinel
            pos = np.zeros((orders.shape[0], self.n + 1), dtype=int)
            pos[rows, orders] = np.arange(1, self.n + 1)
            # a term switches on once its whole support is in the prefix; bincount adds
            # the coefficients of each (row, position) bin in term order
            activate = pos[:, pad].max(axis=1)
            bins = (rows * (self.n + 1) + activate).ravel()
            weights = np.empty(activate.shape)
            weights[:] = coefs
            out = np.bincount(bins, weights.ravel(), out.size).reshape(out.shape)
            np.add.accumulate(out, axis=1, out=out)
        return out.reshape(order.shape[:-1] + (self.n + 1,))

    def __repr__(self):
        return f"<MultilinearFunction n={self.n} terms={len(self.terms)} degree={self.degree}>"


class CubeBasis:
    """Monomials over ``supports`` on {0,1}^n, split in halves for one product per table. Guarded.

    The split is this class's own: with a = n // 2, the monomial of support S at
    bitmask iA | (iB << a) is [S & A within iA] * [S & B within iB].  A table is
    one product V @ U, V (2^b, c) over the B halves and U (c, 2^a) over the A
    halves.  Supports wholly in A sum to one row fA of U (V is 1 there),
    supports wholly in B to one column fB of V (U is 1 there), and every other
    support joins the group of its B half (in order of first appearance), whose
    column in V is that B half's indicator and whose row in U sums its members'
    A indicators.  So c = 2 + (distinct B halves of the mixed supports); U
    is built from one indicator row per distinct A half.  The basis keeps V,
    U and the block of :meth:`least` and rewrites them on every call, so it
    serves one caller at a time.
    """

    def __init__(self, n: int, supports):
        check_capacity("brute force", n)
        a = n // 2
        low = (1 << a) - 1
        masks = [sum(1 << j for j in s) for s in supports]
        mixed = [k for k, m in enumerate(masks) if m & low]  # the supports with an A part
        # the coefficients are read in this order: those supports, then the B-only ones
        self.order = np.array(mixed + [k for k, m in enumerate(masks) if not m & low], dtype=int)
        # B halves (group 0 holds the A-only supports) and A halves, in order of first appearance
        groups, parts = {0: 0}, {}
        member = [groups.setdefault(masks[k] >> a, len(groups)) for k in mixed]
        part = [parts.setdefault(masks[k] & low, len(parts)) for k in mixed]
        g = len(groups)
        # each mixed support's cell in the (A halves, groups) grid its coefficient spreads to
        self.slot = np.array([p * g + q for p, q in zip(part, member)], dtype=int)
        self.grid = (len(parts), g)
        # half masks have at most n - a bits, so int32 holds them and halves the int64 work
        rows, cols = np.arange(1 << a, dtype=np.int32), np.arange(1 << (n - a), dtype=np.int32)[:, None]
        m_a = np.array(list(parts), dtype=np.int32)[:, None]
        m_b = np.array(list(groups) + [m >> a for m in masks if not m & low], dtype=np.int32)
        self.a_ind = ((m_a & rows) == m_a).astype(float)
        b_ind = (cols & m_b) == m_b  # the groups' B indicators, then the B-only supports'
        self.h_ind = b_ind[:, g:].astype(float)
        # V and U with their fixed parts: the group indicators and the row of ones
        self.v, self.u = np.empty((cols.size, g + 1)), np.ones((g + 1, rows.size))
        self.v[:, :g] = b_ind[:, :g]
        self.block = np.empty((min(cols.size, max(1, LEAST_BLOCK // rows.size)), rows.size))

    def _halves(self, coefs):
        """(V, U) of ``coefs``, V @ U its table as a (2^b, 2^a) block: the basis's own, rewritten by the next call."""
        (parts, g), k = self.grid, self.slot.size
        coefs = coefs[self.order]
        spread = np.bincount(self.slot, coefs[:k], parts * g).reshape(self.grid)
        np.matmul(self.h_ind, coefs[k:], out=self.v[:, g])
        np.matmul(spread.T, self.a_ind, out=self.u[:g])
        return self.v, self.u

    def table(self, coefs) -> np.ndarray:
        """sum_k coefs[k] * monomial_k on {0,1}^n as a flat (2^n,) vector.

        Entry m is the value at x with x_i = bit i of m; exact for integer
        coefficients.  The (2^b, 2^a) product is C-ordered, so its ravel is
        that order and makes no copy.
        """
        v, u = self._halves(coefs)
        return (v @ u).ravel()

    def least(self, coefs, excluded=None):
        """(least entry, its first bitmask) of ``table(coefs)``, skipping the ``excluded`` bitmasks.

        Reduces V @ U by blocks of V rows, in bitmask order, into one buffer, so
        the full table is never held and ties go to the least bitmask.
        ``excluded`` is a (2^n,) mask or None; (inf, 0) when every entry is
        excluded.  The block rows are a power of 2, so the blocks tile V.
        """
        v, u = self._halves(coefs)
        block = self.block
        step, width = block.shape
        flat = block.reshape(-1)
        best, where = math.inf, 0
        for r in range(0, v.shape[0], step):
            np.matmul(v[r : r + step], u, out=block)
            if excluded is not None:
                flat[excluded[r * width : (r + step) * width]] = math.inf
            k = int(flat.argmin())
            if flat[k] < best:
                best, where = float(flat[k]), r * width + k
        return best, where


def cube_table(poly: MultilinearFunction) -> np.ndarray:
    """The polynomial's 2^n values, entry m at x_i = bit i of m, as a :class:`CubeBasis` table. Guarded."""
    basis = CubeBasis(poly.n, [s for _, s in poly.terms])
    return basis.table(np.array([a for a, _ in poly.terms]))


def cube_points(n: int) -> np.ndarray:
    """{0,1}^n as a (2^n, n) block of 0/1 floats; row m has x_i = bit i of m. Guarded."""
    check_capacity("cube enumeration", n)
    masks = np.arange(1 << n, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(float)


# ---------------------------------------------------------------------------
# submodular-supermodular decompositions


@dataclass
class SSFunction:
    """Difference target f = f1 - f2 with both parts submodular and normalized.

    ``level`` selects the geometry the cut machinery works against:
    1 for the hypograph {(x, t): f(x) >= t} of an objective,
    0 for the superlevel set {x: f(x) >= 0} of a constraint.
    """

    f1: MultilinearFunction
    f2: MultilinearFunction
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

    Every degree-1 term and every negative term of higher degree form f1;
    the negated positive terms of degree >= 2 form f2.  A polynomial whose
    terms of degree >= 2 are all nonpositive is submodular, so both parts
    are, and f1 - f2 reproduces the input exactly on the cube.  A modular
    term l.x is submodular and supermodular at once, and where it sits
    does not change the reverse-linearized set: adding it to both parts
    moves f2's envelope subgradient gamma by l, and
    (F1 + l.x) - (gamma + l).x = F1 - gamma.x.  So a cut polynomial is
    its own f1 (the same object), with f2 empty.
    """
    second = [(-a, s) for a, s in poly.terms if a > 0 and len(s) >= 2]
    if not second:  # every term is in f1, so f1 is the polynomial itself
        return SSFunction(poly, MultilinearFunction(poly.n, []), level=level)
    first = [(a, s) for a, s in poly.terms if a < 0 or len(s) == 1]
    return SSFunction(MultilinearFunction(poly.n, first), MultilinearFunction(poly.n, second), level=level)


def submodular_by_sign(f: MultilinearFunction) -> bool:
    """True when every term of degree >= 2 has a coefficient <= 0, which proves f submodular.

    Each such term has mixed second differences <= 0 on the cube.  For degree
    <= 2 the converse holds too, so the test is exact there; above, it may
    decline a submodular f (-x0 x1 - x0 x2 - x1 x2 + x0 x1 x2).  Both parts of
    :func:`ss_decompose` pass by construction.
    """
    return all(a <= 0.0 for a, s in f.terms if len(s) >= 2)


# ---------------------------------------------------------------------------
# instance files
#
# Graph format: header "n m", then m lines "i j w" with 1-based endpoints
# and w >= 0.
# Polynomial format: header "n K", then K lines "a_k j1 j2 ... jd" with
# 1-based variable indices.


def read_graph(path) -> Graph:
    tokens = _token_lines(path)
    if not tokens:
        raise ModelError(f"{path}: empty graph file")
    header = tokens[0]
    if len(header) != 2:
        raise ModelError(f"{path}: graph header must be 'n m', got {header}")
    n, m = _numbers(path, int, header)
    if n < 1:
        raise ModelError(f"{path}: a graph needs n >= 1 vertices, got {n}")
    body = tokens[1:]
    if len(body) != m:
        raise ModelError(f"{path}: expected {m} edge lines, found {len(body)}")
    edges = []
    for line in body:
        if len(line) != 3:
            raise ModelError(f"{path}: edge line must be 'i j w', got {line}")
        i, j = _numbers(path, int, line[:2])
        (w,) = _numbers(path, float, line[2:])
        if not (1 <= i <= n and 1 <= j <= n):
            raise ModelError(f"{path}: edge ({i},{j}) outside 1..{n}")
        if w < 0:
            raise ModelError(f"{path}: negative cut weight {w} on edge ({i},{j})")
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
    n, k = _numbers(path, int, header)
    if n < 1:
        raise ModelError(f"{path}: a polynomial needs n >= 1 variables, got {n}")
    body = tokens[1:]
    if len(body) != k:
        raise ModelError(f"{path}: expected {k} term lines, found {len(body)}")
    terms = []
    for line in body:
        if len(line) < 2:
            raise ModelError(f"{path}: term line needs a coefficient and >= 1 index, got {line}")
        (coef,) = _numbers(path, float, line[:1])
        idx = _numbers(path, int, line[1:])
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


def _numbers(path, kind, tokens) -> list:
    """The tokens converted by ``kind``; a token that is not a finite number raises ModelError."""
    try:
        values = [kind(tok) for tok in tokens]
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise ModelError(f"{path}: expected finite {kind.__name__} values, got {tokens}")


def _token_lines(path) -> list:
    out = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                out.append(line.split())
    return out
