"""Convex sets whose interior avoids the target geometry.

For a hypograph target {(x, t): f(x) >= t} (level 1) or a superlevel
target {x: f(x) >= 0} (level 0), each set here is described by a convex
piecewise-linear function G through "G(x) <= level * t".  Points of the
target never lie strictly inside, which is exactly what intersection
cuts need.

Variants: the epigraph of an extended envelope, optionally minus a
linear term (the reverse-linearized set of a submodular-supermodular
difference), and a lifted 0/1 split on a single variable.  The paper's
chain-cover relaxations and the brute-force freeness check are test
oracles and live with the tests.
"""

from __future__ import annotations

import numpy as np

from .envelope import envelope_eval
from .oracles import MultilinearFunction, SSFunction

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


def build_reverse_linearized(ss: SSFunction, x_ref) -> SFreeSet:
    """S-free set for f1 - f2 anchored at x_ref.

    The removed part is replaced by the linearization at x_ref given by an
    envelope subgradient.  When f2 is identically zero this degenerates to
    the plain envelope epigraph of f1.
    """
    gamma = None if ss.f2.trivially_zero else envelope_eval(ss.f2, x_ref).subgradient
    return EnvelopeEpigraph(ss.f1, level=ss.level, gamma=gamma)
