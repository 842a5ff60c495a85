"""Intersection cuts from corner relaxations and level-free sets.

Along each corner ray the distance-to-boundary profile
zeta(eta) = level * (t + eta r_t) - G(x + eta r_x) is piecewise linear
and positive at the apex; for an envelope set its kinks are where the
minimum of one of G's terms c_T min_{i in T} x_i turns from one member to
another.  Its root is the ray's step length, and :func:`ray_steps`
computes it from the set: in closed form for a lifted split, and by one
scan of the known kinks for an envelope set.  The reciprocal step lengths
then define a valid inequality in the ray multipliers that is mapped back
to the original variables through the affine forms carried by the rays.
The lifted LP implies the cut of :func:`gradient_cut`, the set's closed
form at f1 = 0, so no loop calls it.

Separation settings are module constants, read at call time:
ETA_INF bounds every step (a root past it makes the step infinite);
MIN_STEP is the step floor below which the apex counts as on the
boundary; EFFICACY_MIN and DYNAMIC_RANGE_MAX filter assembled cuts; and
CUT_TOL is the validation slack.  The apex margin is zeta(0) on every
ray, and the apex counts as strictly interior when it exceeds
``sfree.INTERIOR_TOL``.  The steps evaluate the set once, at the apex,
and count 0 evaluations per ray; ``step_length`` reads one ray's step.
The paper's step search, a hybrid discrete Newton method, lives with the
tests as the reference these steps are held to.

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
from .sfree import INTERIOR_TOL, EnvelopeEpigraph, LiftedSplit, SFreeSet

ETA_INF = 1e9
MIN_STEP = 1e-6
EFFICACY_MIN = 1e-4
DYNAMIC_RANGE_MAX = 1e8
CUT_TOL = 1e-7

logger = logging.getLogger(__name__)


class StepSearch(NamedTuple):
    """Every ray's step and its evaluation count, as lists."""

    eta: list
    iterations: list


class StepResult(NamedTuple):
    eta: float
    iterations: int


def ray_steps(sfree: SFreeSet, apex_x, apex_t: float, x_dir, t_dir) -> StepSearch | None:
    """Every ray's step, computed where zeta's kinks are known: on every split and envelope set.

    A split's zeta is min(x_j, 1 - x_j) along the ray, so its root is closed
    form (:func:`_split_steps`).  An envelope set's zeta turns where the
    minimum of one of its terms changes member, and :func:`_kink_steps`
    scans those kinks.  Both take the apex margin, zeta(0) on every ray,
    from one ``value_and_subgradient`` call at the apex and return None
    unless it exceeds ``sfree.INTERIOR_TOL``; a step whose root lies past
    ETA_INF is infinite, and every ray reports 0 evaluations.  Any other
    set raises TypeError.
    """
    if isinstance(sfree, LiftedSplit):
        computed = _split_steps
    elif isinstance(sfree, EnvelopeEpigraph):
        computed = _kink_steps
    else:
        raise TypeError(f"no step method for {type(sfree).__name__}")
    value, _ = sfree.value_and_subgradient(apex_x)
    margin = sfree.level * apex_t - value
    if not margin > INTERIOR_TOL:  # a NaN margin is not interior either
        return None
    eta = computed(sfree, apex_x, margin, x_dir, t_dir)
    return StepSearch(eta.tolist(), [0] * eta.size)


def _split_steps(split: LiftedSplit, apex_x, margin: float, x_dir, t_dir) -> np.ndarray:
    """Roots of zeta = min(x_j, 1 - x_j) along the rays: x_j / -r_j for r_j < 0, (1 - x_j) / r_j for r_j > 0."""
    xj, r = apex_x[split.j], x_dir[:, split.j]
    with np.errstate(divide="ignore", over="ignore"):  # r_j = 0 never leaves the slab: an infinite step
        eta = np.where(r < 0.0, xj, 1.0 - xj) / np.abs(r)
    eta[eta > ETA_INF] = math.inf
    return eta


def _kink_steps(env: EnvelopeEpigraph, apex_x, margin: float, x_dir, t_dir) -> np.ndarray:
    """First roots of zeta along the rays, by one scan of each ray's kinks.

    Along apex + eta r a term c_T min_{i in T} x_i follows the lower
    envelope of its member lines x_i + eta r_i, and zeta's slope moves by
    c_T (r_u - r_v) where the term turns from member u to member v.  A term
    of two members follows its lower member u at the apex (on a tie, the one
    with the lower slope) until the two cross at
    eta = (x_v - x_u) / (r_u - r_v) > 0; a longer term's turns come from
    :func:`_envelope_walk`.  Degree-1 terms and gamma only tilt the slope.
    Each ray's kinks are sorted, those past ETA_INF moved to it, and zeta
    summed from the margin over the segments between them; the root is the
    affine solve on the first segment that ends with zeta <= 0, so the step
    is exact for coefficients of either sign.  A ray whose zeta is still
    positive at ETA_INF gets an infinite step.
    """
    coefs, members, (ones, pairs) = env.oracle._term_layout
    linear = np.zeros(apex_x.size) if env.gamma is None else -env.gamma
    linear[members[0, :ones]] += coefs[:ones]  # a variable has at most one degree-1 term
    ends = members[:2, ones:pairs]  # one row when every term has degree 1
    first, last, pair_coefs = ends[0], ends[-1], coefs[ones:pairs]
    gap = apex_x[last] - apex_x[first]
    below = gap >= 0.0
    lead = x_dir[:, np.where(below, first, last)]  # the lower member's slope
    spread = lead - x_dir[:, np.where(below, last, first)]
    tie = gap == 0.0
    # G's slope at the apex, summed before t's so that parts cancelling in G cancel exactly;
    # on a tie a term starts on the member with the lower slope, lead - max(spread, 0)
    grad = x_dir @ linear + lead @ pair_coefs - np.maximum(spread, 0.0) @ (pair_coefs * tie)
    kink = np.full(spread.shape, ETA_INF)
    # the members cross only where the lower one rises faster, and not from a tie
    np.divide(np.where(tie, math.inf, np.abs(gap)), spread, out=kink, where=spread > 0.0)
    turn = pair_coefs * spread  # the turns of terms that do not cross sit at ETA_INF
    if pairs < coefs.size:
        start, walked, turned = _envelope_walk(apex_x, x_dir, members[:, pairs:], coefs[pairs:])
        grad += start
        kink, turn = np.concatenate([kink, walked], axis=1), np.concatenate([turn, turned], axis=1)
    slope = env.level * t_dir - grad
    np.minimum(kink, ETA_INF, out=kink)
    k, m = kink.shape
    order = np.argsort(kink, axis=1) + m * np.arange(k)[:, None]  # flat indices, row by row
    # bounds[:, p] to bounds[:, p + 1] is segment p, of slope slopes[:, p]; values is zeta at the bounds
    bounds = np.zeros((k, m + 2))
    bounds[:, 1:-1] = kink.take(order)
    bounds[:, -1] = ETA_INF
    slopes = np.empty((k, m + 1))
    slopes[:, 0] = slope
    slopes[:, 1:] = turn.take(order)
    np.cumsum(slopes, axis=1, out=slopes)
    values = np.empty((k, m + 2))
    values[:, 0] = margin
    np.multiply(slopes, bounds[:, 1:] - bounds[:, :-1], out=values[:, 1:])
    np.cumsum(values, axis=1, out=values)
    hit = values[:, 1:] <= 0.0
    rows = hit.any(axis=1).nonzero()[0]
    seg = hit[rows].argmax(axis=1)
    eta = np.full(k, math.inf)
    # zeta > 0 at the segment's start and <= 0 at its end, so its slope is negative
    eta[rows] = bounds[rows, seg] - values[rows, seg] / slopes[rows, seg]
    return eta


def _envelope_walk(apex_x, x_dir, members, coefs):
    """G's slope at the apex, and zeta's kinks and slope turns, from terms of three or more members.

    ``members`` holds one term per column, padded with its first member,
    whose line the padding repeats.  Each term walks the lower envelope of
    its member lines x_i + eta r_i: it starts on the lowest member at the
    apex (on a tie, the one with the lowest slope), and each step turns from
    member u to the member v of lower slope that it meets first, at
    (x_v - x_u) / (r_u - r_v); a crossing that rounds below the last kink is
    raised to it.  Every step lowers the slope, so a term of d members turns
    at most d - 1 times.  Once a step finds no lower slope the walk's kinks
    are infinite, so its turns sit at ETA_INF, where they move no root.
    Returns the (k,) slope and two (k, terms * (width - 1)) blocks.
    """
    width, m = members.shape
    k = len(x_dir)
    level = apex_x[members]
    rise = x_dir.T[members]  # (width, m, k): the slope of every member on every ray
    cur = np.where((level == level.min(axis=0))[:, :, None], rise, math.inf).argmin(axis=0).ravel()
    # one column per (term, ray), term-major
    rise, level, cols = rise.reshape(width, m * k), np.repeat(level, k, axis=1), np.arange(m * k)
    rise_u, level_u = rise[cur, cols], level[cur, cols]
    start = coefs @ rise_u.reshape(m, k)
    reached = np.zeros(m * k)
    kinks, turns = [], []
    for _ in range(width - 1):
        spread = rise_u - rise
        cross = np.full(rise.shape, math.inf)
        np.divide(level - level_u, spread, out=cross, where=spread > 0.0)
        np.maximum(cross, reached, out=cross)
        nxt = cross.argmin(axis=0)
        reached, rise_v, level_u = cross[nxt, cols], rise[nxt, cols], level[nxt, cols]
        kinks.append(reached)
        turns.append(rise_u - rise_v)
        rise_u = rise_v
    steps = width - 1
    kinks = np.concatenate(kinks).reshape(steps * m, k).T
    turns = (np.concatenate(turns).reshape(steps, m, k) * coefs[:, None]).reshape(steps * m, k).T
    return start, kinks, turns


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
    search = ray_steps(sfree, corner.apex_x, corner.apex_t, corner.x_dir, corner.t_dir)
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
