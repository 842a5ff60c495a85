"""Convex sets whose interior avoids the target geometry.

For a hypograph target {(x, t): f(x) >= t} (level 1) or a superlevel
target {x: f(x) >= 0} (level 0), each set here is described by a convex
piecewise-linear function G through "G(x) <= level * t".  Points of the
target never lie strictly inside, which is exactly what intersection
cuts need.

Variants: the epigraph of an extended envelope, optionally minus a
linear term (the reverse-linearized set of a submodular-supermodular
difference), a lifted 0/1 split on a single variable, and relaxations
keeping only the envelope facets of a subset of coordinate orders
(covers).
"""

from __future__ import annotations

import numpy as np

from . import simplex
from .envelope import chain_to_permutation, enumerate_vertices, envelope_eval, greedy_vertex
from .errors import check_capacity
from .oracles import MultilinearFunction, SSFunction, cube_points

INTERIOR_TOL = 1e-7


class SFreeSet:
    """Base: the set {(x, t): value(x) <= level * t}. level 0 makes t inert."""

    level = 1
    kind = "sfree"

    def value_and_subgradient(self, x):
        """G(x) and a subgradient; a (k, n) block of points gives (k,) values and (k, n) rows."""
        raise NotImplementedError

    def margin(self, x, t) -> float:
        """Positive inside, zero on the boundary, negative outside."""
        value, _ = self.value_and_subgradient(x)
        return self.level * float(t) - value


class EnvelopeEpigraph(SFreeSet):
    """Epigraph of F - gamma . x, with F the extended envelope of a submodular function.

    Without gamma (kind "env") this is epi(F).  With gamma a subgradient
    of the removed part's envelope at a reference point (kind "ss"),
    {(x, t): F1(x) - gamma . x <= level * t} avoids the target of f1 - f2;
    see :func:`build_reverse_linearized`.
    """

    def __init__(self, oracle: MultilinearFunction, level: int = 1, gamma=None):
        if gamma is not None:
            gamma = np.asarray(gamma, dtype=float)
            if gamma.shape != (oracle.n,):
                raise ValueError(f"gamma has shape {gamma.shape}, expected ({oracle.n},)")
        self.oracle = oracle
        self.gamma = gamma
        self.level = int(level)
        self.n = oracle.n
        self.kind = "env" if gamma is None else "ss"

    def value_and_subgradient(self, x):
        ev = envelope_eval(self.oracle, x)
        if self.gamma is None:
            return ev.value, ev.subgradient
        return ev.value - np.vecdot(x, self.gamma), ev.subgradient - self.gamma


class LiftedSplit(SFreeSet):
    """The slab 0 <= x_j <= 1 lifted over all remaining coordinates."""

    kind = "split"
    level = 0

    def __init__(self, j: int, n: int):
        if not (0 <= j < n):
            raise ValueError(f"split index {j} outside 0..{n - 1}")
        self.j = int(j)
        self.n = int(n)

    def value_and_subgradient(self, x):
        x = np.asarray(x, dtype=float)
        # a scalar for a point (x[..., j] would be a 0-d array, whose arithmetic is
        # several times slower), a column for a block
        xj = x.T[self.j]
        lower, upper = -xj, xj - 1.0
        grad = np.zeros(x.shape)
        # ties resolve to the lower face for determinism
        grad.T[self.j] = np.where(lower < upper, 1.0, -1.0)
        return np.maximum(lower, upper), grad


class CoverRelaxation(SFreeSet):
    """Keep only the envelope facets generated by the given coordinate orders.

    Hypograph-free exactly when the orders' prefix chains cover the cube;
    maximal exactly when no order can be dropped (minimal cover).
    """

    kind = "cover"
    level = 1

    def __init__(self, oracle: MultilinearFunction, orders):
        orders = [np.asarray(o, dtype=int) for o in orders]
        if not orders:
            raise ValueError("a cover relaxation needs at least one order")
        self.oracle = oracle
        self.orders = orders
        self.n = oracle.n
        self.vertices = np.array([greedy_vertex(oracle, o) for o in orders])

    def value_and_subgradient(self, x):
        scores = np.vecdot(np.asarray(x, dtype=float)[..., None, :], self.vertices)
        k = np.argmax(scores, axis=-1)
        return np.take_along_axis(scores, k[..., None], axis=-1)[..., 0], np.take(self.vertices, k, axis=0)


def build_reverse_linearized(ss: SSFunction, x_ref) -> SFreeSet:
    """S-free set for f1 - f2 anchored at x_ref.

    The removed part is replaced by the linearization at x_ref given by an
    envelope subgradient.  When f2 is identically zero this degenerates to
    the plain envelope epigraph of f1.
    """
    gamma = None if ss.f2.trivially_zero else envelope_eval(ss.f2, x_ref).subgradient
    return EnvelopeEpigraph(ss.f1, level=ss.level, gamma=gamma)


# ---------------------------------------------------------------------------
# covers of the cube by prefix chains


def _chain_masks(order) -> set:
    masks = {0}
    m = 0
    for j in order:
        m |= 1 << int(j)
        masks.add(m)
    return masks


def is_cover(n: int, orders) -> bool:
    """Do the prefix chains of ``orders`` visit every binary point? Guarded."""
    check_capacity("cover check", n)
    visited = set()
    for order in orders:
        visited |= _chain_masks(order)
    return len(visited) == (1 << n)


def is_minimal_cover(n: int, orders) -> bool:
    """A cover where dropping any single order breaks coverage."""
    orders = list(orders)
    if not is_cover(n, orders):
        return False
    for k in range(len(orders)):
        if is_cover(n, orders[:k] + orders[k + 1 :]):
            return False
    return True


# ---------------------------------------------------------------------------
# brute-force freeness


def verify_free_bruteforce(sfree: SFreeSet, target) -> bool:
    """No point of the target's geometry lies strictly inside the set.

    Hypograph targets (level 1) are checked at (x, f(x)) for every binary
    x; superlevel targets (level 0) at every sign-feasible binary x.
    Guarded.
    """
    check_capacity("freeness check", target.n)
    level = target.level if isinstance(target, SSFunction) else 1
    for x in cube_points(target.n):
        fx = target.value(x)
        if level == 0 and fx < -1e-12:
            continue
        if sfree.margin(x, fx) > INTERIOR_TOL:
            return False
    return True


# ---------------------------------------------------------------------------
# the three-chain relaxation on n = 3


THREE_CHAINS = (
    ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)),
    ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)),
    ((0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)),
)


def three_chain_relaxation(oracle: MultilinearFunction) -> CoverRelaxation:
    """Relaxation keeping three of the six facets on n = 3.

    The three chains form a minimal cover, so the result is hypograph-free
    and maximal while using half the facets of the full envelope epigraph.
    """
    if oracle.n != 3:
        raise ValueError(f"three-chain relaxation needs n = 3, got n = {oracle.n}")
    orders = [chain_to_permutation([np.array(p, dtype=float) for p in c]) for c in THREE_CHAINS]
    return CoverRelaxation(oracle, orders)


def containment_witness(relaxation: CoverRelaxation):
    """Point inside the relaxation but outside the full envelope epigraph.

    Searches by maximizing the violation of each dropped facet over a box;
    returns (x, t) or None when the kept facets already imply the rest
    (degenerate oracles).
    """
    oracle = relaxation.oracle
    n = oracle.n
    kept = relaxation.vertices
    dropped = []
    for s in enumerate_vertices(oracle):
        if not np.any(np.all(np.abs(kept - s) <= 1e-12, axis=1)):
            dropped.append(s)
    if not dropped:
        return None

    box_lo, box_hi = -1.0, 2.0
    t_r = float(np.abs(kept).sum(axis=1).max(initial=0.0)) * max(abs(box_lo), abs(box_hi)) + 1.0
    rows = np.hstack([kept, -np.ones((kept.shape[0], 1))])
    for s_d in dropped:
        model = simplex.LpModel(
            sense="max",
            objective=np.append(s_d, -1.0),
            rows=rows,
            row_senses=["<="] * kept.shape[0],
            rhs=np.zeros(kept.shape[0]),
            lower=np.append(np.full(n, box_lo), -t_r),
            upper=np.append(np.full(n, box_hi), t_r),
        )
        sol = simplex.solve(model)
        if sol.status == simplex.OPTIMAL and sol.objective > 1e-9:
            return sol.x[:n].copy(), float(sol.x[n])
    return None


def maximality_diagnostic(relaxation: CoverRelaxation) -> bool:
    """Each kept facet carries a binary graph point lying on no other kept facet.

    Exact facet/point incidence (guarded); a diagnostic for non-degenerate
    oracles, not a production path (coinciding facets fail it by design).
    """
    oracle = relaxation.oracle
    check_capacity("maximality diagnostic", oracle.n)
    kept = relaxation.vertices
    values = oracle.values_on_cube()
    scores = kept @ cube_points(oracle.n).T  # (orders, 2^n)
    on_facet = np.abs(scores - values[None, :]) <= 1e-9
    for p in range(kept.shape[0]):
        others = np.delete(np.arange(kept.shape[0]), p)
        exclusive = on_facet[p] & ~np.any(on_facet[others], axis=0)
        if not np.any(exclusive):
            return False
    return True
