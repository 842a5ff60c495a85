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

from dataclasses import dataclass

import numpy as np

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


def _check_order(n: int, order) -> np.ndarray:
    order = np.asarray(order, dtype=int)
    if order.shape != (n,) or sorted(order.tolist()) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {order}")
    return order
