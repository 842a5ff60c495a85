"""Covers of the cube by prefix chains and the free sets they define.

The paper characterizes the maximal S-free sets that contain epi(F)
through covers of {0,1}^n by maximal chains: keeping only the envelope
facets of a cover's orders still gives a hypograph-free set, and a
minimal cover gives a maximal one.  On n = 3 three chains suffice, so
that set keeps half the facets of epi(F) and is strictly larger.  The
root loop separates with neither, so these constructions serve only the
tests that confirm the claims.  Unlike ``_reference`` they build on the
package: a relaxation is an ``SFreeSet`` of greedy vertices, and the
containment witness solves LPs with ``simplex.solve``.
"""

import itertools

import numpy as np

from _reference import chain_to_permutation, greedy_vertex, values_on_cube
from subcut import simplex
from subcut.oracles import MultilinearFunction, cube_points
from subcut.sfree import SFreeSet


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


def _chain_masks(order) -> set:
    masks = {0}
    m = 0
    for j in order:
        m |= 1 << int(j)
        masks.add(m)
    return masks


def is_cover(n: int, orders) -> bool:
    """Do the prefix chains of ``orders`` visit every binary point?"""
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
    for order in itertools.permutations(range(n)):
        s = greedy_vertex(oracle, order)
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

    Exact facet/point incidence; a diagnostic for non-degenerate oracles
    (coinciding facets fail it by design).
    """
    oracle = relaxation.oracle
    kept = relaxation.vertices
    values = values_on_cube(oracle)
    scores = kept @ cube_points(oracle.n).T  # (orders, 2^n)
    on_facet = np.abs(scores - values[None, :]) <= 1e-9
    for p in range(kept.shape[0]):
        others = np.delete(np.arange(kept.shape[0]), p)
        exclusive = on_facet[p] & ~np.any(on_facet[others], axis=0)
        if not np.any(exclusive):
            return False
    return True
