"""Root-node cutting-plane experiments.

Drives the loop solve -> corner -> separate -> add cuts -> resolve for a
configured cut mode, measures how much of the gap between the first LP
bound and a reference optimum the cuts close, and aggregates runs with
shifted geometric means.  Also houses the instance generators, the
instance loader and the reference-optimum lookup (brute force for small
n, sidecar file beyond).  Every loaded instance is a BmpInstance: a
max-cut file becomes its cut polynomial as it is read.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import simplex
# root_loop never calls gradient_cut; it is imported only for perfbench/layers.py, which wraps it here
from .cuts import CutValidator, gradient_cut, intersection_cut, validate_cut_bruteforce  # noqa: F401
from .errors import CAPACITY, ModelError, NumericError, check_capacity
from .models import BmpInstance, build_model, project_corner
from .oracles import (
    READERS,
    CubeBasis,
    Graph,
    MultilinearFunction,
    complement_symmetric,
    cut_polynomial,
    finite_number,
    number_text,
    write_graph,
    write_polynomial,
)
from .sfree import LiftedSplit, build_reverse_linearized

logger = logging.getLogger(__name__)

MODES = ("none", "split", "submodular", "ss", "both")
VALIDATE_MODES = ("auto", "on", "off")
BINARY_TOL = 1e-6  # an LP value within this of 0 or 1 counts as integral
BOUND_TOL = 1e-7  # relative slack of the bound guards in root_loop
CSV_HEADER = "instance,mode,d1,d2,p,closed,cuts,sep_time_ms,total_time_ms"


@dataclass
class RunConfig:
    """Settings of one root-node run; mirrors the JSON config files.

    The separation tolerances are not run settings: they are the
    constants of ``subcut.cuts`` (and ``sfree.INTERIOR_TOL``,
    ``BINARY_TOL``).
    """

    mode: str = "submodular"
    rounds: int = 10
    max_cuts_per_round: int = 50
    validate_cuts: str = "auto"  # "auto" (up to the cut validation capacity), "on", "off"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        for name in ("rounds", "max_cuts_per_round"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.max_cuts_per_round < 1:
            raise ValueError("max_cuts_per_round must be >= 1")
        if self.validate_cuts not in VALIDATE_MODES:
            raise ValueError(f"validate_cuts must be {'/'.join(VALIDATE_MODES)}, got {self.validate_cuts!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The config of a JSON object; its benchmark-level "modes" list is checked, not kept.

        A benchmark runs every entry of "modes" in place of "mode", so a
        config that sets both raises.
        """
        known = [f.name for f in dataclasses.fields(cls)]
        accepted = ", ".join(known + ["modes"])
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object with keys from {accepted}")
        extra = set(data) - set(known) - {"modes"}
        if extra:
            raise ValueError(f"unknown config keys {sorted(extra)}; accepted keys: {accepted}")
        if "mode" in data and "modes" in data:
            raise ValueError("set mode or modes, not both")
        modes = data.get("modes", list(MODES))
        if not isinstance(modes, list) or not modes or any(m not in MODES for m in modes):
            raise ValueError(f"modes must be a non-empty list of entries from {MODES}, got {modes!r}")
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class RootNodeReport:
    """Outcome of one root-node run (one instance, one mode)."""

    instance: str
    mode: str
    d1: float = math.nan
    d2: float = math.nan
    p: float = math.nan
    closed: float = math.nan
    cuts: int = 0
    sep_time_ms: float = 0.0
    total_time_ms: float = math.nan
    rounds: int = 0
    skipped: int = 0
    failed: bool = False

    def csv_row(self) -> str:
        cells = [self.instance, self.mode]
        cells += [_fmt(v) for v in (self.d1, self.d2, self.p, self.closed)]
        cells.append(str(self.cuts))
        cells += [_fmt(v) for v in (self.sep_time_ms, self.total_time_ms)]
        return ",".join(cells)


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def closed_gap(d1: float, d2: float, p: float) -> float:
    """Fraction of the bound-to-optimum distance recovered, for maximization.

    d1 is the first LP bound, d2 the bound after cuts, p the reference
    optimum, so the fraction is (d1 - d2) / (d1 - p).  Degenerate gaps
    (bound at most 1e-9 above the optimum) count as 0.
    """
    if any(math.isnan(v) for v in (d1, d2, p)):
        return math.nan
    denom = d1 - p
    if denom <= 1e-9:
        return 0.0
    return (d1 - d2) / denom


def split_selector(x):
    """Index of the most fractional entry (largest min(x_j, 1-x_j)).

    Ties break to the smallest index; returns None when every entry is
    integral within BINARY_TOL.
    """
    x = np.asarray(x, dtype=float)
    frac = np.minimum(x, 1.0 - x)
    if np.all(frac <= BINARY_TOL):
        return None
    return int(np.argmax(frac))


def _candidates(mode: str, targets, x_bar, split: int):
    """Separation worklist for one round: the S-free sets to cut with, in order.

    ``split`` is ``split_selector(x_bar)``, the split cut's index under split
    and both.  submodular separates the first target, ss and both every target,
    by one rule: a reverse-linearized set when f1 has a term of degree >= 2, and
    nothing otherwise.  Without one (f1 = 0 too) the lifted LP already bounds t
    by the concave envelope, so no set, nor ``gradient_cut``'s halfspace, can cut.
    """
    out = [LiftedSplit(split, x_bar.size)] if mode in ("split", "both") else []
    for ss in {"submodular": targets[:1], "ss": targets, "both": targets}.get(mode, []):
        if ss.f1.degree > 1:
            out.append(build_reverse_linearized(ss, x_bar))
    return out


def _want_validation(config: RunConfig, n: int) -> bool:
    if config.validate_cuts == "on":
        check_capacity("brute force", n)
        return True
    if config.validate_cuts == "off":
        return False
    return n <= CAPACITY["cut validation"]


def _solve_lazy(model, deferred, pending, flip, warm=None):
    """Solve ``model``, then append the ``pending`` rows of ``deferred`` that the optimum violates.

    Re-solves warm after each append until the optimum violates no pending
    row by more than ``simplex.FEAS_TOL``, so it is feasible for every
    deferred row and therefore optimal with them all appended too.
    Deferred rows are inequalities, and ``flip`` holds -1 at each >= row
    of ``deferred`` and +1 at every other.  Returns (model, solution, rows
    still pending); the solution is None once a solve raises NumericError
    or ends other than optimal.
    """
    try:
        sol = simplex.solve(model, warm=warm)
        while sol.status == simplex.OPTIMAL and pending.size:
            excess = (deferred.rows[pending] @ sol.x - deferred.rhs[pending]) * flip[pending]
            hit = excess > simplex.FEAS_TOL
            if not hit.any():
                break
            add = pending[hit]
            model = model.with_extra_rows(
                deferred.rows[add], [deferred.row_senses[i] for i in add], deferred.rhs[add])
            pending = pending[~hit]
            sol = simplex.solve(model, warm=sol)
    except NumericError:
        return model, None, pending
    return model, (sol if sol.status == simplex.OPTIMAL else None), pending


def root_loop(model, targets, lift, config: RunConfig, instance: str = "", primal=None) -> RootNodeReport:
    """Run up to config.rounds rounds of separation at the root node.

    Stops early when the LP optimum is binary in x, a round has nothing to
    separate (so mode none counts no round and builds no corner) or a round
    produces no cut.  The report is the loop's only record: built first, its
    bounds and counts are updated as the rounds run.  The loop solves the lean
    ``model`` that ``build_model`` returns, and after every solve appends
    the rows of ``lift.deferred`` its optimum violates and re-solves warm
    (``_solve_lazy``), so d1 and every round's bound are those of the full
    model, the lean one with every deferred row appended, with the same
    cuts (an = row among the deferred raises ValueError).  Each round
    re-solves warm from the previous round's optimal basis.  A reference
    optimum above d1 raises ModelError: d1 bounds the true optimum, so that
    p is wrong data.  So does a p below the value of a feasible binary
    point, which the loop checks at the first LP optimum rounded, and at an
    LP optimum binary in x, where it stops.  An LP failure sets the failure
    flag on the report; a cut failing point validation, or a bound that
    rises across a round or falls below the reference optimum, raises, since
    that can only be a bug.
    """
    if not targets:
        raise ModelError("at least one separation target is required")
    t0 = time.perf_counter()
    p = math.nan if primal is None else float(primal)
    report = RootNodeReport(instance, config.mode, p=p)
    validator = CutValidator(lift, model.lower[lift.t_col]) if _want_validation(config, lift.n) else None
    deferred = lift.deferred
    senses = [] if deferred is None else deferred.row_senses
    if "=" in senses:
        raise ValueError("the deferred rows include an = row; only inequalities can be deferred")
    flip = np.array([-1.0 if s == ">=" else 1.0 for s in senses])
    pending = np.arange(len(senses))
    model, sol, pending = _solve_lazy(model, deferred, pending, flip)
    if sol is not None:
        report.d1 = report.d2 = float(sol.objective)
        if p > report.d1 + BOUND_TOL * (1.0 + abs(report.d1)):
            raise ModelError(f"reference optimum p = {_fmt(p)} of {instance!r} exceeds the first"
                             f" LP bound d1 = {_fmt(report.d1)}")
        _check_binary_point(lift.instance, np.round(sol.x[lift.x_cols]), p, instance, "rounded first LP optimum")

    while sol is not None and report.rounds < config.rounds:
        x_bar = sol.x[lift.x_cols]
        split = split_selector(x_bar)
        if split is None:
            _check_binary_point(lift.instance, np.round(x_bar), p, instance, "binary LP optimum")
            break  # vertex already binary in x; nothing to separate
        s0 = time.perf_counter()
        worklist = _candidates(config.mode, targets, x_bar, split)
        if not worklist:
            break  # mode none, or no target a set can cut: no corner is needed
        report.rounds += 1
        corner = project_corner(simplex.corner(sol), lift)
        batch = []
        for free in worklist:
            if len(batch) >= config.max_cuts_per_round:
                break
            cut = intersection_cut(corner, free)
            if cut is None:
                report.skipped += 1
                continue
            batch.append(cut)
        report.sep_time_ms += (time.perf_counter() - s0) * 1000.0
        if not batch:
            break

        if validator is not None:
            for cut in batch:
                verdict = validate_cut_bruteforce(cut, validator)
                if not verdict:
                    x = [(verdict.mask >> i) & 1 for i in range(lift.n)]
                    raise NumericError(
                        f"{cut.kind} cut failed brute-force validation on {instance!r}: residual"
                        f" coef.z - rhs = {verdict.residual:.6g} at x = {x} (bitmask {verdict.mask})"
                    )
        report.cuts += len(batch)
        model = model.with_extra_rows([c.coef for c in batch], [">="] * len(batch), [c.rhs for c in batch])
        model, sol, pending = _solve_lazy(model, deferred, pending, flip, warm=sol)
        if sol is None:
            break
        # cuts can only lower the bound, and valid cuts never below the optimum
        bound = float(sol.objective)
        tol = BOUND_TOL * (1.0 + abs(bound))
        if bound > report.d2 + tol or bound < p - tol:
            raise NumericError(
                f"bound {bound!r} after round {report.rounds} on {instance!r} leaves [p, previous bound]"
                f" = [{p!r}, {report.d2!r}]"
            )
        report.d2 = bound
    report.failed = sol is None
    report.closed = closed_gap(report.d1, report.d2, p)
    report.total_time_ms = (time.perf_counter() - t0) * 1000.0
    return report


def _check_binary_point(problem: BmpInstance, x, p: float, instance: str, what: str) -> None:
    """Raise ModelError when the binary point x, named ``what`` in the message, is feasible and its value beats p."""
    if problem.cardinality is not None and int(x.sum()) != problem.cardinality:
        return
    if any(c.value(x) < 0.0 for c in problem.constraints):
        return
    value = problem.objective.value(x)
    if value > p + BOUND_TOL * (1.0 + abs(p)):
        raise ModelError(
            f"reference optimum p = {_fmt(p)} of {instance!r} is below the value {_fmt(value)}"
            f" of the {what} x = {x.astype(int).tolist()}")


# ---------------------------------------------------------------------------
# aggregation


def shifted_geomean(values) -> float:
    """Geometric mean of the values shifted by 1, shifted back."""
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValueError("empty value list")
    if np.any(vals + 1.0 <= 0.0):
        raise ValueError("values must exceed -1")
    return float(np.exp(np.mean(np.log(vals + 1.0))) - 1.0)


def aggregate(reports) -> dict:
    """Per-mode shifted geometric means: closed gap, time (s), cut count.

    Failed runs are left out.
    """
    live = [r for r in reports if not r.failed]
    if not live:
        raise ValueError("no successful reports to aggregate")
    by_mode: dict = {}
    for r in live:
        by_mode.setdefault(r.mode, []).append(r)
    out = {}
    for mode in MODES:
        if mode not in by_mode:
            continue
        rs = by_mode[mode]
        out[mode] = {
            "closed": shifted_geomean([r.closed for r in rs]),
            "time": shifted_geomean([r.total_time_ms / 1000.0 for r in rs]),
            "cuts": shifted_geomean([float(r.cuts) for r in rs]),
            "runs": len(rs),
        }
    return out


def write_report_csv(reports, path) -> None:
    lines = [CSV_HEADER] + [r.csv_row() for r in reports]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# reference optima


def brute_force_primal(instance: BmpInstance) -> float:
    """Exact optimum over {0,1}^n: minus the least value of -f over the feasible points.

    The least value is :meth:`CubeBasis.least`'s, by blocks of the cube, so no
    2^n table of f is held; the infeasible mask is built only for an instance
    with constraints or a cardinality.  An instance with neither has its cube
    cut down first, with f's values on it unchanged: a variable no term holds
    (an isolated vertex) drops out, and when f(1 - x) = f(x)
    (:func:`complement_symmetric`, every cut polynomial) the last variable
    left is fixed at 0, since that half of the cube holds every value.  When
    nothing drops, as for every autocorr objective, the basis is f's own.
    Exact for the integer coefficients every generator makes, else up to
    rounding.  Guarded at the instance's own n, by ``instance.infeasible``,
    before any reduction.
    """
    if not isinstance(instance, BmpInstance):
        raise ModelError(f"no brute force for {type(instance).__name__}")
    f = instance.objective
    n, terms, excluded = f.n, f.terms, instance.infeasible()
    supports = [s for _, s in terms]
    if excluded is None:
        held = set().union(*supports)
        symmetric = complement_symmetric(f)
        if symmetric or len(held) < n:
            kept = sorted(held)[:-1] if symmetric else sorted(held)
            index = {j: k for k, j in enumerate(kept)}
            terms = [(a, [index[j] for j in s]) for a, s in terms if s.issubset(index)]
            n, supports = len(kept), [s for _, s in terms]
    basis = CubeBasis(n, supports)
    least, _ = basis.least(np.array([-a for a, _ in terms]), excluded)
    if least == math.inf:
        raise ModelError("no feasible binary point")
    return 0.0 - least  # +0.0, not -0.0, when the optimum is 0


def sidecar_primal(instance_path):
    """Reference optimum from '<instance stem>.sol': its first whitespace token, a finite number."""
    side = Path(instance_path).with_suffix(".sol")
    if not side.exists():
        return None
    return finite_number((side.read_text().split(maxsplit=1) or [""])[0], side)


def reference_primal(instance: BmpInstance, instance_path=None) -> float:
    """The instance's .sol sidecar value when there is one, else brute force."""
    if instance_path is not None:
        value = sidecar_primal(instance_path)
        if value is not None:
            return value
    return brute_force_primal(instance)


# ---------------------------------------------------------------------------
# instance generators


def pw_graph(n: int, density: float = 0.5, seed: int = 0, max_weight: int = 100) -> Graph:
    """Random graph, each pair an edge with the given probability.

    Weights are integers uniform in [1, max_weight]; max_weight=1 gives
    the unweighted g05 graphs.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(n, 1)
    keep = rng.random(ii.size) < density
    weights = rng.integers(1, max_weight + 1, size=int(keep.sum()))
    edges = [
        (int(i), int(j), float(w))
        for i, j, w in zip(ii[keep], jj[keep], weights)
    ]
    return Graph(n, edges)


def autocorr_polynomial(n: int, max_lag: int = 3, density: float = 1.0, seed: int = 0) -> MultilinearFunction:
    """Degree-<=4 polynomial with autocorrelation-style structure.

    Supports are the lag pairs {i, i+k} plus the shifted quadruples
    {i, i+k, j, j+k} for lags k up to max_lag, with coefficients drawn
    uniformly from {-1, +1}.  `density` subsamples the quadruples, which
    otherwise dominate the term count.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    lags = range(1, min(max_lag, n - 1) + 1)
    supports = []
    seen = set()
    for k in lags:
        for i in range(n - k):
            s = frozenset((i, i + k))
            if s not in seen:
                seen.add(s)
                supports.append(s)
    for k in lags:
        for i in range(n - k):
            for j in range(i + 1, n - k):
                s = frozenset((i, i + k, j, j + k))
                if len(s) == 4 and s not in seen and rng.random() < density:
                    seen.add(s)
                    supports.append(s)
    coefs = rng.choice([-1.0, 1.0], size=len(supports))
    return MultilinearFunction(n, list(zip(coefs, supports)))


GENERATORS = ("g05", "pw", "autocorr")


def generate_instances(
    kind: str,
    n: int,
    count: int = 1,
    seed: int = 0,
    out_dir=".",
    density: float = None,
    max_lag: int = 3,
):
    """Write `count` seeded instances (plus .sol sidecars when brute-forceable)."""
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator {kind!r}; expected one of {GENERATORS}")
    if n < 2:
        raise ValueError(f"need n >= 2, got n = {n}")
    check_capacity("instance file", n)  # before pw_graph sizes anything by n, and before any file
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if density is not None and not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        s = seed + i
        if kind in ("g05", "pw"):
            max_weight = 1 if kind == "g05" else 100
            graph = pw_graph(n, 0.5 if density is None else density, s, max_weight)
            path = out / f"{kind}_n{n}_s{s}.mc"
            write_graph(graph, path)
            poly = cut_polynomial(graph)
        else:
            poly = autocorr_polynomial(n, max_lag, 1.0 if density is None else density, s)
            path = out / f"autocorr_n{n}_s{s}.pol"
            write_polynomial(poly, path)
        if n <= CAPACITY["brute force"]:
            value = brute_force_primal(BmpInstance(poly))
            path.with_suffix(".sol").write_text(number_text(value) + "\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# runners


def load_instance(path) -> BmpInstance:
    """Read an instance file as a BmpInstance by the reader its suffix has in ``READERS``."""
    path = Path(path)
    if path.suffix not in READERS:
        raise ModelError(f"{path}: unrecognized instance extension {path.suffix!r} (want {' or '.join(READERS)})")
    return BmpInstance(READERS[path.suffix](path))


def run_instance(path, config: RunConfig, primal=None) -> RootNodeReport:
    """One root-node run; ``primal`` (a number or its text) overrides the reference optimum lookup."""
    path = Path(path)
    instance = load_instance(path)
    if primal is None:
        primal = reference_primal(instance, path)
    else:
        primal = finite_number(primal, "primal override")
    model, targets, lift = build_model(instance)
    return root_loop(model, targets, lift, config, instance=path.stem, primal=primal)


def run_benchmark(paths, config: RunConfig, modes=None) -> list:
    """Every instance under every mode; returns the flat report list.

    Every instance is loaded and given its reference optimum before the
    first run, so a malformed or oversized file ends the benchmark
    before any work is spent on the others.
    """
    modes = list(modes) if modes is not None else [config.mode]
    paths = [Path(path) for path in paths]
    instances = [load_instance(path) for path in paths]
    primals = [reference_primal(instance, path) for instance, path in zip(instances, paths)]
    reports = []
    for path, instance, primal in zip(paths, instances, primals):
        for mode in modes:
            cfg = dataclasses.replace(config, mode=mode)
            report = root_loop(*build_model(instance), cfg, instance=path.stem, primal=primal)
            logger.info("REPORT %s", report.csv_row())
            reports.append(report)
    return reports
