"""Intersection cuts from corner relaxations and level-free sets.

Along each corner ray the distance-to-boundary profile
zeta(eta) = level * (t + eta r_t) - G(x + eta r_x) is concave piecewise
linear and positive at the apex; for an envelope set its kinks are where
two members of one term cross, since G's terms are c_T min_{i in T} x_i.
A hybrid discrete Newton search finds its root (the step length); the
reciprocal step lengths then define a valid inequality in the ray
multipliers that is mapped back to the original variables through the
affine forms carried by the rays.  The lifted LP implies the cut of
:func:`gradient_cut`, the set's closed form at f1 = 0, so no loop calls it.

Separation settings are module constants, read at call time:
NEWTON_START, NEWTON_MAX_STEPS, ETA_INF and ROOT_TOL drive the step
search; MIN_STEP is the step floor below which the apex counts as on the
boundary; EFFICACY_MIN and DYNAMIC_RANGE_MAX filter assembled cuts; and
CUT_TOL is the validation slack.  The apex margin is zeta(0) on every
ray, and the apex counts as strictly interior when it exceeds
``sfree.INTERIOR_TOL``.

One search, :func:`newton_steps`, decides the steps of all rays of a
corner in lockstep, one block evaluation of the set per round: the first
block holds the apex (so the margin costs no call of its own) and every
ray's ETA_INF and NEWTON_START probes, and each later round holds the
next Newton or doubling step of every ray still searching.  Each ray keeps
its root in a bracket and bisects it when a step does not land above the
bracket's inner end; a ray that reaches NEWTON_MAX_STEPS without a root
takes that inner end, so every ray ends with a step that gives a valid cut.
``step_length`` reads one ray's step out of its result.

Brute-force validation needs no corner: every feasible binary x, lifted
with exact products and any t in [lower_t, f(x)], lies in the first LP, so
a valid cut keeps it, and the least residual over those points is the
minimum of one multilinear polynomial on the cube.  That polynomial always
lives on the lift's monomials, so a run builds one :class:`CutValidator`
(their :class:`CubeBasis`, the objective on them and the infeasible mask)
and each cut costs one small matrix product, one mask and one argmin.  The
table is flat and indexed by bitmask, so the argmin is the failing x.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .oracles import CubeBasis, SSFunction, envelope_eval
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


def zeta_slope(sfree: SFreeSet, apex_x, apex_t: float, eta, x_dir, t_dir):
    """zeta and its slope estimate at apex + eta * ray, one row per ray.

    ``eta`` and ``t_dir`` are (k,) and ``x_dir`` is (k, n).  vecdot rounds
    each row as the 1-D product does, so every row is bit-identical to the
    point evaluation of its ray.
    """
    value, grad = sfree.value_and_subgradient(apex_x + eta[:, None] * x_dir)
    lvl = sfree.level
    return lvl * (apex_t + eta * t_dir) - value, lvl * t_dir - np.vecdot(grad, x_dir)


class StepSearch(NamedTuple):
    """Every ray's step and its evaluation count, as lists."""

    eta: list
    iterations: list


class StepResult(NamedTuple):
    eta: float
    iterations: int


def newton_steps(sfree: SFreeSet, apex_x, apex_t: float, x_dir, t_dir) -> StepSearch | None:
    """Root of every ray's zeta on (0, +inf], by bracketed discrete Newton in lockstep.

    The first block holds the apex, then every ray's ETA_INF and NEWTON_START
    probes.  The apex row's zeta is the apex margin, zeta(0) on every ray:
    unless it exceeds ``sfree.INTERIOR_TOL`` the apex is not strictly
    interior, and the search returns None before any Newton round.  A ray
    that still sees positive margin at ETA_INF gets an infinite step and 0
    evaluations.  Every other ray starts at NEWTON_START; a negative slope
    estimate gives a Newton step and a flat or rising stretch doubles eta,
    until |zeta| <= ROOT_TOL.  Each later round evaluates the rays still
    searching in one block.

    Each searching ray keeps a bracket: lo, the largest eta evaluated with
    zeta > 0 (from 0, the apex), and hi, the least evaluated without (from
    ETA_INF).  A step that does not land above lo, which only rounding or a
    non-finite zeta or slope can cause, is replaced by the midpoint of the
    bracket (Press et al., *Numerical Recipes*, 9.4, ``rtsafe``), so no
    point with zeta > 0 is evaluated twice.  A ray with no root after
    NEWTON_MAX_STEPS evaluations takes lo as its step: a point strictly
    inside the set, so its cut stays valid, only weaker.
    """
    n = len(t_dir)
    steps = np.full(n, math.inf)
    iterations = np.zeros(n, dtype=int)
    probes = np.full(2 * n + 1, NEWTON_START)
    probes[: n + 1] = ETA_INF
    probes[0] = 0.0
    zeta, slope = zeta_slope(sfree, apex_x, apex_t, probes,
                             np.concatenate([np.zeros((1, x_dir.shape[1])), x_dir, x_dir]),
                             np.concatenate([[0.0], t_dir, t_dir]))
    if not zeta[0] > INTERIOR_TOL:  # a NaN margin is not interior either
        return None
    rays = (~(zeta[1 : n + 1] > 0.0)).nonzero()[0]  # a positive far probe means an infinite step
    zeta, slope = zeta[n + 1 :][rays], slope[n + 1 :][rays]
    eta = np.full(rays.size, NEWTON_START)
    lo, hi = np.zeros(rays.size), np.full(rays.size, ETA_INF)
    for it in range(1, NEWTON_MAX_STEPS + 1):
        done = np.abs(zeta) <= ROOT_TOL
        steps[rays[done]] = eta[done]
        iterations[rays[done]] = it
        left = (~done).nonzero()[0]  # integer indices gather faster than a mask
        rays, eta, zeta, slope, lo, hi = rays[left], eta[left], zeta[left], slope[left], lo[left], hi[left]
        if not rays.size or it == NEWTON_MAX_STEPS:
            break
        inside = zeta > 0.0
        np.copyto(lo, eta, where=inside)  # every evaluated eta lies above lo
        np.copyto(hi, np.minimum(hi, eta), where=~inside)
        newton = slope < 0.0
        eta = np.where(newton, eta - zeta / np.where(newton, slope, 1.0), 2.0 * eta)
        low = ~(eta > lo)  # a NaN step is not above lo either
        if low.any():
            eta[low] = 0.5 * (lo[low] + hi[low])
        zeta, slope = zeta_slope(sfree, apex_x, apex_t, eta, x_dir[rays], t_dir[rays])
    steps[rays] = np.where(zeta > 0.0, eta, lo)  # an eta evaluated inside lies above lo
    iterations[rays] = NEWTON_MAX_STEPS
    return StepSearch(steps.tolist(), iterations.tolist())


def step_length(search: StepSearch, k: int) -> StepResult:
    """Ray k's step and evaluation count."""
    return StepResult(search.eta[k], search.iterations[k])


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


def intersection_cut(corner, sfree: SFreeSet):
    """Build the intersection cut of a projected corner with an S-free set.

    Returns None when no usable cut exists: apex not strictly interior,
    all steps infinite, a step below the near-boundary floor, or the
    assembled cut failing the efficacy or dynamic-range filters.
    """
    if corner.apex_x is None:
        raise ValueError("corner has no (x, t) projection; project it first")
    search = newton_steps(sfree, corner.apex_x, corner.apex_t, corner.x_dir, corner.t_dir)
    if search is None:
        return None
    # one step_length call per ray, up to the first step below the floor
    for k in range(corner.nrays):
        if step_length(search, k).eta < MIN_STEP:
            return None  # apex numerically on the boundary; skip the cut

    steps = np.array(search.eta)
    finite = np.isfinite(steps)
    eta = steps[finite]
    if not eta.size:
        return None
    # row by row in ray order, as a loop would add them: numpy sums pairwise
    # only along a contiguous axis, and the rows span the x and t columns;
    # subtract has no pairwise path, so its reduce is the left fold 1 - a - b - ...
    coef = np.add.reduce(corner.eta_coef[finite] / eta[:, None], axis=0)
    rhs = float(np.subtract.reduce(np.concatenate([[1.0], corner.eta_off[finite] / eta])))

    mags = np.abs(coef)
    mags = mags[mags > 1e-12]
    if mags.size and mags.max() / mags.min() > DYNAMIC_RANGE_MAX:
        return None
    return _filtered_cut(coef, rhs, rhs - float(coef @ corner.apex), sfree.kind, steps=search.eta,
                         newton_iters=sum(search.iterations), infinite_steps=corner.nrays - eta.size)


def gradient_cut(ss: SSFunction, x_ref, t_ref: float, lift):
    """Outer-approximation cut for a purely supermodular target (f1 == 0).

    With gamma an envelope subgradient of f2 at the reference point, every
    target point satisfies gamma . x + level * t <= 0.  Returns None when
    the reference point does not violate that inequality by more than
    1e-9 (nothing to cut), the subgradient vanishes, or the cut's efficacy
    is below EFFICACY_MIN.  It returns None at every LP optimum, so
    ``root_loop`` never calls it: each a_S > 0, and -gamma . x = sum_S a_S
    min_{i in S} x_i (F2 is linear with slope gamma at x; Lovasz 1983), which
    is >= 0 at level 0 and, by the LP rows y_S <= x_i, >= sum_S a_S y_S >= t
    at level 1, up to the LP's row residual.
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
    return _filtered_cut(coef, 0.0, violation, "grad")


def _filtered_cut(coef, rhs: float, violation: float, kind: str, **stats):
    """The cut coef . z >= rhs, which the separated point violates by ``violation``, logged.

    The one filter of both cut kinds: None when coef vanishes or the
    efficacy, violation / ||coef||, is below EFFICACY_MIN.  ``stats`` are
    an intersection cut's step statistics.
    """
    norm = math.sqrt(coef @ coef)  # the doubles of np.linalg.norm, without its dispatch
    if norm <= 1e-12:
        return None
    efficacy = violation / norm
    if efficacy < EFFICACY_MIN:
        return None
    cut = IntersectionCut(coef=coef, rhs=rhs, kind=kind, efficacy=efficacy, **stats)
    logger.info(
        "CUT kind=%s rays=%d inf_steps=%d efficacy=%.6g newton_iters=%d",
        cut.kind, cut.nrays, cut.infinite_steps, cut.efficacy, cut.newton_iters,
    )
    return cut


# ---------------------------------------------------------------------------
# brute-force validity


@dataclass(frozen=True)
class CutCheck:
    """Least residual coef . z - rhs of a cut over the points every valid cut keeps.

    True when the residual is at least -CUT_TOL.  ``mask`` is the binary x
    where the least residual is reached, as a bitmask (bit i is x_i); among
    ties it is the least such bitmask.
    """

    residual: float
    mask: int

    def __bool__(self) -> bool:
        return bool(self.residual >= -CUT_TOL)


class CutValidator:
    """The cube one run's cuts are checked on; ``root_loop`` makes one per validating run.

    Its monomials are the lift's: the x singletons in ``x_cols`` order, the
    ``y_cols`` supports, then any other support of the objective.  ``cube``
    holds their :class:`CubeBasis`, the objective's coefficients on them (so
    a_t * f folds into a cut's coefficient vector) and the mask of the points
    that break a constraint or the cardinality (None when the instance has
    neither).  Guarded by the brute-force capacity before any table is built.
    """

    def __init__(self, lift, lower_t: float):
        # the cube is built by the first validate_cut_bruteforce call, so the
        # time of that call, not the caller's, includes it
        self.lift = lift
        self.lower_t = float(lower_t)
        self.cols = np.array([*lift.x_cols, *lift.y_cols.values()], dtype=int)

    @functools.cached_property
    def cube(self):
        """(basis, objective coefficients, infeasible mask). Guarded."""
        lift = self.lift
        objective = dict.fromkeys([frozenset({j}) for j in range(lift.n)] + list(lift.y_cols), 0.0)
        for c, s in lift.instance.objective.terms:
            objective[s] = objective.get(s, 0.0) + c
        basis = CubeBasis(lift.n, list(objective))
        return basis, np.array(list(objective.values())), lift.instance.infeasible()


def validate_cut_bruteforce(cut: IntersectionCut, validator: CutValidator) -> CutCheck:
    """Check the cut at every feasible binary x of the lift's instance, lifted exactly.

    Each such x, with y the exact products and any t in [lower_t, f(x)], lies in
    the first LP and satisfies every earlier valid cut, so a valid cut keeps it.
    The cut is affine in t, so the worst t is f(x) when its t coefficient is
    negative and lower_t when it is positive; the least residual over the cube is
    then the minimum of one multilinear polynomial, the cut's x and y
    coefficients (plus a_t * f) on the run's :class:`CutValidator` basis, with
    infeasible points skipped.  :meth:`CubeBasis.least` takes it block by block,
    so the 2^n table is never held.
    """
    basis, objective, infeasible = validator.cube
    a_t = float(cut.coef[validator.lift.t_col])
    coefs = np.zeros(objective.size)
    coefs[: validator.cols.size] = cut.coef[validator.cols]
    if a_t < 0.0:
        coefs += a_t * objective
    least, mask = basis.least(coefs, infeasible)
    shift = a_t * validator.lower_t if a_t > 0.0 else 0.0
    return CutCheck(least + shift - cut.rhs, mask)
