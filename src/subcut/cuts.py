"""Intersection cuts from corner relaxations and level-free sets.

Along each corner ray the distance-to-boundary profile
zeta(eta) = level * (t + eta r_t) - G(x + eta r_x) is concave piecewise
linear and positive at the apex.  A hybrid discrete Newton search finds
its root (the step length); the reciprocal step lengths then define a
valid inequality in the ray multipliers that is mapped back to the
original variables through the affine forms carried by the rays.

Separation settings are module constants, read at call time:
NEWTON_START, NEWTON_MAX_STEPS, ETA_INF and ROOT_TOL drive the step
search; MIN_STEP is the step floor below which the apex counts as on the
boundary; EFFICACY_MIN and DYNAMIC_RANGE_MAX filter assembled cuts; and
CUT_TOL is the satisfaction and validation slack.  The apex margin is
computed once per cut: the apex counts as strictly interior when it
exceeds ``sfree.INTERIOR_TOL``, and it is zeta(0) on every ray.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .envelope import envelope_eval
from .errors import SeparationBudget, check_capacity
from .oracles import SSFunction, cube_chunks
from .sfree import INTERIOR_TOL, SFreeSet

NEWTON_START = 0.2
NEWTON_MAX_STEPS = 500
ETA_INF = 1e9
ROOT_TOL = 1e-9
MIN_STEP = 1e-6
EFFICACY_MIN = 1e-4
DYNAMIC_RANGE_MAX = 1e8
CUT_TOL = 1e-7

logger = logging.getLogger(__name__)


def _log_cut(cut: "IntersectionCut") -> "IntersectionCut":
    logger.info(
        "CUT kind=%s rays=%d inf_steps=%d efficacy=%.6g newton_iters=%d",
        cut.kind, cut.nrays, cut.infinite_steps, cut.efficacy, cut.newton_iters,
    )
    return cut


@dataclass
class ZetaFunction:
    """Boundary-distance profile of one ray against one set."""

    sfree: SFreeSet
    apex_x: np.ndarray
    apex_t: float
    ray_x: np.ndarray
    ray_t: float

    def eval(self, eta: float):
        """Value and a subgradient-based slope estimate at eta."""
        x = self.apex_x + eta * self.ray_x
        value, grad = self.sfree.value_and_subgradient(x)
        lvl = self.sfree.level
        zeta = lvl * (self.apex_t + eta * self.ray_t) - value
        slope = lvl * self.ray_t - float(grad @ self.ray_x)
        return zeta, slope


class StepResult(NamedTuple):
    eta: float
    iterations: int


def step_length(zf: ZetaFunction, zeta0: float) -> StepResult:
    """Root of zeta on (0, +inf], by safeguarded discrete Newton.

    ``zeta0`` is zeta(0), the apex margin, which must be positive.  If the
    ray still sees positive margin at ETA_INF the step is +inf.
    Starting from NEWTON_START, negative slope estimates give Newton
    steps and flat or rising stretches double eta, until |zeta| <=
    ROOT_TOL.  Raises SeparationBudget after NEWTON_MAX_STEPS evaluations.
    """
    if zeta0 <= 0.0:
        raise ValueError(f"apex margin {zeta0} not positive; apex must be strictly interior")
    far, _ = zf.eval(ETA_INF)
    if far > 0.0:
        return StepResult(math.inf, 0)
    eta = NEWTON_START
    for it in range(1, NEWTON_MAX_STEPS + 1):
        value, slope = zf.eval(eta)
        if abs(value) <= ROOT_TOL:
            return StepResult(eta, it)
        if slope < 0.0:
            eta = eta - value / slope
        else:
            eta = 2.0 * eta
    raise SeparationBudget(f"no root within {NEWTON_MAX_STEPS} steps (eta = {eta:.6g})")


@dataclass
class IntersectionCut:
    """Inequality coef . z >= rhs over the model columns."""

    coef: np.ndarray
    rhs: float
    kind: str
    efficacy: float
    steps: list = field(default_factory=list)
    newton_iters: int = 0
    infinite_steps: int = 0

    @property
    def nrays(self) -> int:
        return len(self.steps)

    def violation(self, z) -> float:
        return self.rhs - float(self.coef @ np.asarray(z, dtype=float))

    def satisfied(self, z) -> bool:
        return self.violation(z) <= CUT_TOL


def intersection_cut(corner, sfree: SFreeSet):
    """Build the intersection cut of a projected corner with an S-free set.

    Returns None when no usable cut exists: apex not strictly interior,
    all steps infinite, a step below the near-boundary floor, the step
    search out of budget, or the assembled cut failing the efficacy or
    dynamic-range filters.
    """
    if corner.apex_x is None:
        raise ValueError("corner has no (x, t) projection; project it first")
    margin = sfree.margin(corner.apex_x, corner.apex_t)
    if not margin > INTERIOR_TOL:  # a NaN margin is not interior either
        return None

    steps = []
    newton_total = 0
    for k in range(corner.nrays):
        zf = ZetaFunction(sfree, corner.apex_x, corner.apex_t, corner.x_dir[k], float(corner.t_dir[k]))
        try:
            res = step_length(zf, margin)
        except SeparationBudget:
            return None
        if math.isfinite(res.eta) and res.eta < MIN_STEP:
            return None  # apex numerically on the boundary; skip the cut
        steps.append(res.eta)
        newton_total += res.iterations

    finite = [k for k, e in enumerate(steps) if math.isfinite(e)]
    if not finite:
        return None
    coef = np.zeros(corner.apex.size)
    rhs = 1.0
    for k in finite:
        coef += corner.eta_coef[k] / steps[k]
        rhs -= float(corner.eta_off[k]) / steps[k]

    norm = float(np.linalg.norm(coef))
    if norm <= 1e-12:
        return None
    mags = np.abs(coef[np.abs(coef) > 1e-12])
    if mags.size and mags.max() / mags.min() > DYNAMIC_RANGE_MAX:
        return None
    efficacy = (rhs - float(coef @ corner.apex)) / norm
    if efficacy < EFFICACY_MIN:
        return None
    return _log_cut(IntersectionCut(
        coef=coef,
        rhs=rhs,
        kind=sfree.kind,
        efficacy=efficacy,
        steps=steps,
        newton_iters=newton_total,
        infinite_steps=len(steps) - len(finite),
    ))


def gradient_cut(ss: SSFunction, x_ref, t_ref: float, lift):
    """Outer-approximation cut for a purely supermodular target (f1 == 0).

    With gamma an envelope subgradient of f2 at the reference point, every
    target point satisfies gamma . x + level * t <= 0.  Returns None when
    the reference point does not violate that inequality by more than
    1e-9 (nothing to cut), the subgradient vanishes, or the cut's
    efficacy is below EFFICACY_MIN.
    """
    if not ss.f1.trivially_zero:
        raise ValueError("gradient cut requires the submodular part to be identically zero")
    x_ref = np.asarray(x_ref, dtype=float)
    gamma = envelope_eval(ss.f2, x_ref).subgradient
    violation = float(gamma @ x_ref) + ss.level * float(t_ref)
    if violation <= 1e-9:
        return None
    coef = np.zeros(lift.ncols)
    coef[lift.x_cols] = -gamma
    coef[lift.t_col] = -float(ss.level)
    norm = float(np.linalg.norm(coef))
    if norm <= 1e-12:
        return None
    efficacy = violation / norm
    if efficacy < EFFICACY_MIN:
        return None
    return _log_cut(IntersectionCut(coef=coef, rhs=0.0, kind="grad", efficacy=efficacy))


# ---------------------------------------------------------------------------
# brute-force validity


def _lifted_cube(target, lift):
    """The binary points on the target's side, lifted (t = 0), and their t caps."""
    if isinstance(target, SSFunction):
        level = target.level
        vals = target.f1.values_on_cube() - target.f2.values_on_cube()
    else:
        level = 1
        vals = target.values_on_cube()
    z_pts = lift.full_point(np.concatenate(list(cube_chunks(target.n))), 0.0)
    if level == 1:
        return z_pts, vals
    keep = vals >= -1e-12
    return z_pts[keep], np.full(int(keep.sum()), math.inf)


def validate_cut_bruteforce(
    cut: IntersectionCut, target, lift, corner=None, cubes: dict = None
) -> bool:
    """Check the cut against every binary point on the target's side.

    For each binary x the relevant t values form an interval: bounded above
    by f(x) for hypograph targets, unconstrained for superlevel targets
    (where only sign-feasible x count), and clipped to the corner when one
    is given.  The cut is affine in t, so only the worse endpoint needs
    evaluating; an empty interval exempts the point, and a cut leaning on
    an unbounded t direction fails.  Guarded.

    ``cubes`` is an optional dict that a caller checking many cuts under
    one lift keeps across calls: the lifted points of each target are
    computed on its first call and reused after that, and so are their t
    intervals while the corner stays the same object (``is``, not
    ``id()``: a later corner may reuse a freed one's id).
    """
    check_capacity("cut validation", target.n)
    cache = {} if cubes is None else cubes
    if id(target) not in cache:
        cache[id(target)] = [*_lifted_cube(target, lift), None]
    entry = cache[id(target)]
    z_pts, cap, last = entry
    if z_pts.shape[0] == 0:
        return True
    if last is None or last[0] is not corner:
        t_lo, t_hi = _corner_t_interval(z_pts, corner, lift.t_col, CUT_TOL)
        last = entry[2] = (corner, t_lo, np.minimum(t_hi, cap))
    _, t_lo, t_hi = last
    alive = t_lo <= t_hi + CUT_TOL
    if not alive.any():
        return True

    a_t = float(cut.coef[lift.t_col])
    base = z_pts @ cut.coef
    if abs(a_t) <= 1e-12:
        flagged = alive & (base < cut.rhs - CUT_TOL)
        probe = np.minimum(np.maximum(t_lo, 0.0), t_hi)
    else:
        worst = t_lo if a_t > 0 else t_hi
        if np.any(alive & np.isinf(worst)):
            return False  # cut leans on an unbounded t direction
        flagged = alive & (base + a_t * worst < cut.rhs - CUT_TOL)
        probe = worst
    for k in np.flatnonzero(flagged):
        if _reachable(corner, z_pts[k], lift.t_col, float(probe[k])):
            return False
    return True


def _corner_t_interval(z_pts, corner, t_col, tol):
    """The interval [t_lo, t_hi] of t each point (t entry zero) may take in the corner.

    All rays at once: a ray whose eta rises with t bounds t below, one
    whose eta falls bounds it above, and a ray flat in t excludes the
    point (t_lo = inf) when its eta is below -tol.  Without a corner every
    interval is the whole line.
    """
    t_lo = np.full(z_pts.shape[0], -math.inf)
    t_hi = np.full(z_pts.shape[0], math.inf)
    if corner is None or corner.nrays == 0:
        return t_lo, t_hi
    rest = z_pts @ corner.eta_coef.T + corner.eta_off
    a = corner.eta_coef[:, t_col]
    flat = np.abs(a) <= 1e-14
    up = ~flat & (a > 0)
    down = ~flat & (a < 0)
    if up.any():
        t_lo = np.max(-rest[:, up] / a[up], axis=1)
    if down.any():
        t_hi = np.min(-rest[:, down] / a[down], axis=1)
    t_lo[np.any(rest[:, flat] < -tol, axis=1)] = math.inf
    return t_lo, t_hi


def _reachable(corner, z, t_col, t_val) -> bool:
    """Whether z with its t entry set to t_val really lies in the corner.

    The eta forms are necessary conditions; when the corner has fewer rays
    than dimensions (equality rows ate some logicals) the point must also
    reconstruct from the apex, or it sits off the corner's affine hull.
    """
    if corner is None or math.isinf(t_val):
        return True
    if corner.nrays == corner.apex.size:
        return True
    probe = np.array(z, dtype=float)
    probe[t_col] = t_val
    recon = corner.apex + (corner.eta_coef @ probe + corner.eta_off) @ corner.directions
    return bool(np.max(np.abs(recon - probe)) <= 1e-6 * (1.0 + np.max(np.abs(probe))))
