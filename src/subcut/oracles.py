"""Set functions on the Boolean cube, all of them multilinear polynomials.

A :class:`MultilinearFunction` is the value oracle the cut machinery
works with: it gives values at points and on the whole cube, and
:func:`envelope_eval` gives its convex extension, the envelope, in closed
form at any point of R^n.  Every table over the cube is one flat (2^n,)
vector whose entry m is the value at x_i = bit i of m; only :class:`CubeBasis`
computes it in two halves, and its ``least`` gives the least entry by
blocks of the cube without holding the table.  Graph cut functions are
the degree-2 case (:func:`cut_polynomial`), and :func:`ss_decompose`
leaves them whole as the submodular part.  Supports are nonempty, so
every function is 0 at the origin.

Also holds the two instance file formats, a weighted edge list for graphs
and a term list for multilinear polynomials: one reader and one writer for
the grammar they share, one finite-number check for every number read from
outside the program, and ``READERS``, the one table of instance suffixes.
:class:`Graph` exists only for the edge-list files and the graph
generators; a loaded graph is its cut polynomial from then on.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CAPACITY, CapacityError, ModelError, check_capacity

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
    submodular; :func:`submodular_by_sign` can certify that it is.  Cube
    values and envelope subgradients are sums of coefficients, so they are
    exact whenever the coefficients are integers.
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
        return len(self.terms[-1][1]) if self.terms else 0  # the terms are sorted by degree

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
    def _term_layout(self):
        """Coefficients, each term's members in descending index order as one column, padded with the first,
        and the number of terms of degree 1 and of degree <= 2 (the terms are sorted by degree).

        Built on the first envelope evaluation or kink scan (``cuts``, which
        takes the degree-2 terms by their first two rows and walks the longer
        ones) only: cut validation tables one residual polynomial per cut and
        never takes its envelope.
        """
        sizes = [len(s) for _, s in self.terms]
        width = max(sizes, default=1)
        members = np.empty((width, len(self.terms)), dtype=np.intp)
        for k, (_, s) in enumerate(self.terms):
            desc = sorted(s, reverse=True)
            members[:, k] = desc + desc[:1] * (width - len(desc))
        ones = sizes.count(1)
        return np.array([a for a, _ in self.terms], dtype=float), members, (ones, ones + sizes.count(2))

    def __repr__(self):
        return f"<MultilinearFunction n={self.n} terms={len(self.terms)} degree={self.degree}>"


@dataclass
class EnvelopeEvaluation:
    """Envelope value at a point and a subgradient; for a (k, n) block, ``value`` is (k,) and ``subgradient`` (k, n)."""

    value: float | np.ndarray
    subgradient: np.ndarray


def envelope_eval(f: MultilinearFunction, x) -> EnvelopeEvaluation:
    """The envelope F of ``f`` and a subgradient at a point of R^n, or at each row of a (k, n) block.

    F is linear in f, and for a monomial x_T it is min_{i in T} x_i on all
    of R^n, so F(x) = sum_T c_T min_{i in T} x_i.  The subgradient sigma
    puts each c_T on the argmin of T, ties going to the highest index
    (-0.0 ties +0.0): the member the greedy chain, which takes coordinates
    in nonincreasing order and ties by index, adds last.  So sigma is the
    chain's greedy vertex, each entry the same coefficients summed in the
    same order, and F(x) = sigma . x.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != f.n:
        raise ValueError(f"expected point or rows of dimension {f.n}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("point contains NaN or infinite coordinates")
    block = np.atleast_2d(x)
    coefs, members, _ = f._term_layout
    cols = np.ascontiguousarray(block.T)  # so each gather below copies whole rows: (terms, k) blocks
    least, argmin = cols[members[0]], members[0][:, None]
    for row in members[1:]:  # a strict < keeps the higher index on ties
        entry = cols[row]
        lower = entry < least
        # arithmetic selects: np.where branches per entry and is several times slower here
        least, argmin = np.minimum(least, entry), argmin + lower * (row[:, None] - argmin)
    k = block.shape[0]
    bins = argmin + np.arange(0, k * f.n, f.n)
    # bincount adds each bin's coefficients in term order
    sigma = np.bincount(bins.ravel(), np.repeat(coefs, k), k * f.n).reshape(block.shape)
    # vecdot rounds each row as a 1-D dot product does; einsum and sum(axis=1) do not
    value = np.vecdot(sigma, block)
    if x.ndim == 1:
        return EnvelopeEvaluation(float(value[0]), sigma[0])
    return EnvelopeEvaluation(value, sigma)


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
        bits = [1 << j for j in range(n)]  # a lookup sums a support's bits faster than shifting each
        masks = [sum(map(bits.__getitem__, s)) for s in supports]
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


def complement_symmetric(poly: MultilinearFunction) -> bool:
    """Whether f(1 - x) = f(x) on {0,1}^n, as every cut polynomial is; decided exactly from the coefficients.

    The coefficient of x_S in f(1 - x) is (-1)^|S| times the sum of c_T over
    T containing S, so f is symmetric iff that equals c_S for every S: for
    S empty the coefficients sum to 0, and at degree 2 it asks
    2 c_i + sum_j c_ij = 0 for each i.  Each condition is one sum of c_T
    over T containing S, less (-1)^|S| c_S: a term of odd size adds its
    own coefficient twice, one of even size not at all.  The S of one
    member are summed first, since they settle most asymmetric f, and the
    larger ones only from terms of degree 3 or more.  Each sum is a
    ``math.fsum``, so a nonzero one is never rounded to 0, and one whose
    partial sums overflow a double counts as nonzero: a wrong False costs
    only the whole cube, a wrong True a wrong optimum.
    """
    try:
        if math.fsum(a for a, _ in poly.terms) != 0.0:
            return False
        singles = collections.defaultdict(list)
        for a, t in poly.terms:
            for i in t:
                singles[i] += (a, a) if len(t) == 1 else (a,)
        if any(math.fsum(addends) != 0.0 for addends in singles.values()):
            return False
        larger = collections.defaultdict(list)  # keyed by the sorted members of S
        for a, t in poly.terms:
            if len(t) > 2:
                members = tuple(sorted(t))
                if len(members) % 2:
                    larger[members] += (a, a)
                for k in range(2, len(members)):
                    for s in itertools.combinations(members, k):
                        larger[s].append(a)
        return all(math.fsum(addends) == 0.0 for addends in larger.values())
    except OverflowError:
        return False


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
# Both formats are a header "n count" with n >= 1, then exactly count body
# lines; "#" starts a comment and blank lines are skipped.  A graph (.mc)
# body line is "i j w": two distinct 1-based endpoints and a weight w >= 0.
# A polynomial (.pol) body line is "a j1 ... jd": a coefficient and one or
# more 1-based variable indices.  Numbers are written by number_text, so
# every double reads back bit-equal.


def finite_number(token, source, kind=float):
    """``token`` converted by ``kind`` (float or int) if that is finite; else ModelError naming ``source``.

    Every number read from outside the program passes here: instance file
    tokens, the ``.sol`` value and ``root --primal``.
    """
    try:
        value = kind(token)
    except ValueError:
        value = math.nan
    if value - value == 0:  # false for nan and +-inf; unlike math.isfinite, no overflow on a huge int
        return value
    raise ModelError(f"{source}: expected {'an integer' if kind is int else 'a finite number'}, got {token!r}")


def number_text(x: float) -> str:
    """``x`` with 17 significant digits: reads back bit-equal, and integer values print as integers."""
    return f"{x:.17g}"


def _read_counted(path, unit: str):
    """(n, body lines as token lists) of a .mc or .pol file, checked against the grammar both share."""
    lines = []
    with open(path) as fh:
        for raw in fh:
            tokens = raw.split("#", 1)[0].split()
            if tokens:
                lines.append(tokens)
    header = lines[0] if lines else []
    if len(header) != 2:
        raise ModelError(f"{path}: header must be 'n count', got {header}")
    n, count = finite_number(header[0], path, int), finite_number(header[1], path, int)
    if n < 1:
        raise ModelError(f"{path}: n must be >= 1, got {n}")
    if n > CAPACITY["instance file"]:
        raise CapacityError(f"{path}: instance file limited to n <= {CAPACITY['instance file']}, got n = {n}")
    if len(lines) - 1 != count:
        raise ModelError(f"{path}: expected {count} {unit} lines, found {len(lines) - 1}")
    return n, lines[1:]


def _write_counted(path, n: int, body) -> None:
    """Write the header 'n count' and the ``body`` lines of a .mc or .pol file."""
    with open(path, "w") as fh:
        fh.write("\n".join([f"{n} {len(body)}", *body]) + "\n")


def read_graph(path) -> Graph:
    n, body = _read_counted(path, "edge")
    edges = []
    for line in body:
        if len(line) != 3:
            raise ModelError(f"{path}: edge line must be 'i j w', got {line}")
        i, j = finite_number(line[0], path, int), finite_number(line[1], path, int)
        w = finite_number(line[2], path)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ModelError(f"{path}: edge ({i},{j}) outside 1..{n}")
        if i == j:
            raise ModelError(f"{path}: self-loop at vertex {i}")
        if w < 0:
            raise ModelError(f"{path}: negative cut weight {w} on edge ({i},{j})")
        edges.append((i - 1, j - 1, w))
    return Graph(n, edges)


def write_graph(graph: Graph, path) -> None:
    _write_counted(path, graph.n, [f"{i + 1} {j + 1} {number_text(w)}" for i, j, w in graph.edges])


def read_polynomial(path) -> MultilinearFunction:
    n, body = _read_counted(path, "term")
    terms = []
    for line in body:
        if len(line) < 2:
            raise ModelError(f"{path}: term line needs a coefficient and >= 1 index, got {line}")
        coef = finite_number(line[0], path)
        idx = [finite_number(tok, path, int) for tok in line[1:]]
        if min(idx) < 1 or max(idx) > n:
            raise ModelError(f"{path}: term indices {idx} outside 1..{n}")
        terms.append((coef, [j - 1 for j in idx]))
    return MultilinearFunction(n, terms)


def write_polynomial(poly: MultilinearFunction, path) -> None:
    body = [" ".join([number_text(a), *(str(j + 1) for j in sorted(s))]) for a, s in poly.terms]
    _write_counted(path, poly.n, body)


# Instance file suffixes and their readers, in the order `subcut bench` takes a
# directory's files: a .mc edge list is read as its cut polynomial.
READERS = {".mc": lambda path: cut_polynomial(read_graph(path)), ".pol": read_polynomial}
