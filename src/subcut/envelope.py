"""Extended envelope of a normalized submodular function.

The envelope is the support function of the extended polymatroid of f,
evaluated by sorting: order the coordinates of x nonincreasingly, walk
the induced 0-1 prefix chain, and read off marginal gains.  That greedy
vertex maximizes s . x over all n! candidates, so the envelope extends f
from the cube to all of R^n with n + 1 oracle calls per point.

:func:`envelope_eval` takes one point or a (k, n) block of points.  A
block is sorted row by row, its chains are valued in one oracle call,
and each row's value and subgradient equal the point result bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import check_capacity
from .oracles import MultilinearFunction


def greedy_vertex(oracle: MultilinearFunction, order) -> np.ndarray:
    """Marginal-gain vector along the prefix chain of ``order``.

    Component order[i] holds f(chain_{i+1}) - f(chain_i); for submodular f
    this is a vertex of the extended polymatroid.
    """
    return _vertex(oracle, _check_order(oracle.n, order))


def _vertex(oracle: MultilinearFunction, order: np.ndarray) -> np.ndarray:
    """:func:`greedy_vertex` of an order known to be a permutation."""
    chain = oracle.chain_values(order)
    sigma = np.empty(oracle.n)
    sigma[order] = chain[1:] - chain[:-1]
    return sigma


def chain_points(order) -> list:
    """Monotone 0-1 chain induced by ``order``: all-zeros up to all-ones."""
    order = np.asarray(order, dtype=int)
    n = order.size
    points = [np.zeros(n)]
    x = np.zeros(n)
    for j in order:
        x = x.copy()
        x[j] = 1.0
        points.append(x)
    return points


def chain_to_permutation(points) -> np.ndarray:
    """Inverse of :func:`chain_points`; rejects anything that is not a full chain."""
    pts = [np.asarray(p, dtype=float) for p in points]
    if not pts:
        raise ValueError("empty chain")
    n = pts[0].size
    if len(pts) != n + 1:
        raise ValueError(f"a full chain on n = {n} has {n + 1} points, got {len(pts)}")
    if np.any(pts[0] != 0.0):
        raise ValueError("chain must start at the all-zero point")
    order = np.empty(n, dtype=int)
    for i in range(n):
        diff = pts[i + 1] - pts[i]
        added = np.nonzero(diff)[0]
        if added.size != 1 or diff[added[0]] != 1.0:
            raise ValueError(f"chain step {i} does not add exactly one coordinate")
        order[i] = added[0]
    return order


def support_points(oracle: MultilinearFunction, order) -> list:
    """The n + 1 chain points of ``order`` paired with their oracle values."""
    order = _check_order(oracle.n, order)
    values = oracle.chain_values(order)
    return [(p, float(v)) for p, v in zip(chain_points(order), values)]


@dataclass
class EnvelopeEvaluation:
    """Envelope value at a point and the maximizing vertex (a subgradient).

    For a (k, n) block of points, ``value`` has shape (k,) and
    ``subgradient`` (k, n).
    """

    value: float | np.ndarray
    subgradient: np.ndarray


def envelope_eval(oracle: MultilinearFunction, x) -> EnvelopeEvaluation:
    """Envelope value and a subgradient at a point of R^n, or at each row of a (k, n) block."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != oracle.n:
        raise ValueError(f"expected point or rows of dimension {oracle.n}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("point contains NaN or infinite coordinates")
    order = (-x).argsort(axis=-1, kind="stable")
    if x.ndim == 1:
        sigma = _vertex(oracle, order)
        return EnvelopeEvaluation(float(sigma @ x), sigma)
    chain = oracle.chain_values(order)
    sigma = np.empty(x.shape)
    np.put_along_axis(sigma, order, chain[:, 1:] - chain[:, :-1], axis=1)
    # vecdot rounds each row as the 1-D product above does; einsum and sum(axis=1) do not
    return EnvelopeEvaluation(np.vecdot(sigma, x), sigma)


def enumerate_vertices(oracle: MultilinearFunction) -> list:
    """Greedy vertices of all n! orders (testing utility, guarded)."""
    check_capacity("vertex enumeration", oracle.n)
    return [greedy_vertex(oracle, order) for order in itertools.permutations(range(oracle.n))]


def envelope_max_bruteforce(oracle: MultilinearFunction, x) -> float:
    """max_s s . x over all greedy vertices, by enumeration (guarded)."""
    x = np.asarray(x, dtype=float)
    return max(float(s @ x) for s in enumerate_vertices(oracle))


def _check_order(n: int, order) -> np.ndarray:
    order = np.asarray(order, dtype=int)
    if order.shape != (n,) or sorted(order.tolist()) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {order}")
    return order
