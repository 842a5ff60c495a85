"""Per-layer tracing of subcut from outside the program.

A `Tracer` replaces the functions that callers look up at the module
attributes listed in `SITES` with timing wrappers, for as long as its
`installed()` context is open.  Calls that happen a handful of times per
round (LP solves, corners, separation, validation) are kept as spans with
name, start, end and parent; the high-frequency calls (step lengths and
envelope evaluations, tens of thousands per run) only accumulate time and
counts.  Every layer also accumulates calls, busy time and self time (its
busy time minus the time of the wrapped calls nested inside it).
Everything stays in memory until the caller writes it out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
from collections import Counter
from time import perf_counter

from subcut.errors import SeparationBudget

# (module, attribute the caller looks up, layer name, keep spans)
SITES = (
    ("subcut.harness", "intersection_cut", "cuts.intersection_cut", True),
    ("subcut.harness", "validate_cut_bruteforce", "cuts.validate", True),
    ("subcut.harness", "gradient_cut", "cuts.gradient_cut", True),
    ("subcut.harness", "project_corner", "models.project_corner", True),
    ("subcut.harness", "brute_force_primal", "harness.brute_force_primal", True),
    ("subcut.simplex", "solve", "simplex.solve", True),
    ("subcut.simplex", "corner", "simplex.corner", True),
    ("subcut.cuts", "step_length", "cuts.step_length", False),
    ("subcut.cuts", "envelope_eval", "envelope.eval", False),
    ("subcut.sfree", "envelope_eval", "envelope.eval", False),
)

# Layers whose calls happen outside root_loop (instance preparation).
SETUP_LAYERS = frozenset({
    "harness.generate", "harness.brute_force_primal", "harness.load", "models.build",
})


class Tracer:
    """Spans, per-layer totals and per-run counts for one benchmark run."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or None)
        self.layers = {}  # name -> Counter of calls, s, self_s and layer counts
        self.run = Counter()  # exact counts of the current root-loop run
        self._stack = []  # open frames: [span id or None, child time]
        self._solves_in_run = 0

    # -- recording -------------------------------------------------------

    def layer(self, name: str) -> Counter:
        return self.layers.setdefault(name, Counter())

    def _enter(self, keep_span: bool):
        span_id = len(self.spans) if keep_span else None
        if keep_span:
            self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append([span_id, 0.0])
        return perf_counter()

    def _exit(self, name: str, start: float) -> float:
        end = perf_counter()
        span_id, child = self._stack.pop()
        busy = end - start
        stats = self.layer(name)
        stats["calls"] += 1
        stats["s"] += busy
        stats["self_s"] += busy - child
        if self._stack:
            self._stack[-1][1] += busy
        if span_id is not None:
            parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
            self.spans[span_id] = (span_id, name, start, end, parent)
        return busy

    def new_run(self):
        """Start the exact counts of the next root-loop run."""
        self.run = Counter()
        self._solves_in_run = 0

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a call the benchmark makes itself (setup, root_loop)."""
        start = self._enter(True)
        try:
            yield
        finally:
            self._exit(name, start)

    def _wrap(self, fn, name: str, keep_span: bool):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._enter(keep_span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                busy = self._exit(name, start)
                if observe is not None:
                    observe(args, None, exc, busy)
                raise
            busy = self._exit(name, start)
            if observe is not None:
                observe(args, result, None, busy)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site in `SITES`; the originals come back on exit."""
        saved = []
        try:
            for module_name, attr, name, keep_span in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, keep_span))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- layer-specific counts --------------------------------------------

    def _observe_simplex_solve(self, args, result, exc, busy):
        stats = self.layer("simplex.solve")
        kind = "first" if self._solves_in_run == 0 else "resolve"
        self._solves_in_run += 1
        stats["rows"] += args[0].nrows
        stats[kind + ".calls"] += 1
        stats[kind + ".s"] += busy
        if exc is not None or result.status != "optimal":
            stats["failed"] += 1
        if result is not None:
            stats["pivots"] += result.iterations
            stats[kind + ".pivots"] += result.iterations
            self.run["pivots"] += result.iterations

    def _observe_simplex_corner(self, args, result, exc, busy):
        if result is not None:
            self.layer("simplex.corner")["rays"] += result.nrays

    def _observe_cuts_intersection_cut(self, args, result, exc, busy):
        if result is not None:
            self.layer("cuts.intersection_cut")["emitted"] += 1

    def _observe_cuts_gradient_cut(self, args, result, exc, busy):
        if result is not None:
            self.layer("cuts.gradient_cut")["emitted"] += 1

    def _observe_cuts_step_length(self, args, result, exc, busy):
        stats = self.layer("cuts.step_length")
        self.run["rays"] += 1
        if isinstance(exc, SeparationBudget):
            stats["budget_exhausted"] += 1
        if result is not None:
            stats["newton"] += result.iterations
            self.run["newton_steps"] += result.iterations
            if math.isinf(result.eta):
                stats["infinite"] += 1

    def _observe_envelope_eval(self, args, result, exc, busy):
        self.run["envelope_evals"] += 1


def layer_metrics(tracer: Tracer, wall_untraced: float) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    get = tracer.layer
    solve, corner, sep = get("simplex.solve"), get("simplex.corner"), get("cuts.intersection_cut")
    steps, env, loop = get("cuts.step_length"), get("envelope.eval"), get("harness.root_loop")

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "simplex.solve.calls": (solve["calls"], "count"),
        "simplex.solve.s": (solve["s"], "s"),
        "simplex.solve.pivots": (solve["pivots"], "count"),
        "simplex.solve.ms_per_pivot": (1e3 * ratio(solve["s"], solve["pivots"]), "ms"),
        "simplex.solve.rows_mean": (ratio(solve["rows"], solve["calls"]), "count"),
        "simplex.solve.failed": (solve["failed"], "count"),
        "simplex.solve.first.s": (solve["first.s"], "s"),
        "simplex.solve.first.pivots": (solve["first.pivots"], "count"),
        "simplex.solve.resolve.s": (solve["resolve.s"], "s"),
        "simplex.solve.resolve.pivots_per_solve": (
            ratio(solve["resolve.pivots"], solve["resolve.calls"]), "count"),
        "simplex.corner.s": (corner["s"], "s"),
        "simplex.corner.rays_mean": (ratio(corner["rays"], corner["calls"]), "count"),
        "cuts.intersection_cut.calls": (sep["calls"], "count"),
        "cuts.intersection_cut.s": (sep["s"], "s"),
        "cuts.intersection_cut.yield": (ratio(sep["emitted"], sep["calls"]), "frac"),
        "cuts.step_length.calls": (steps["calls"], "count"),
        "cuts.step_length.newton_per_ray": (ratio(steps["newton"], steps["calls"]), "count"),
        "cuts.step_length.inf_frac": (ratio(steps["infinite"], steps["calls"]), "frac"),
        "cuts.step_length.budget_exhausted": (steps["budget_exhausted"], "count"),
        "cuts.validate.calls": (get("cuts.validate")["calls"], "count"),
        "cuts.validate.share": (100.0 * ratio(get("cuts.validate")["s"], loop["s"]), "%"),
        "cuts.gradient_cut.calls": (get("cuts.gradient_cut")["calls"], "count"),
        "envelope.eval.calls": (env["calls"], "count"),
        "envelope.eval.s": (env["s"], "s"),
        "envelope.eval.us_per_call": (1e6 * ratio(env["s"], env["calls"]), "us"),
        "models.build.s": (get("models.build")["s"], "s"),
        "models.project_corner.s": (get("models.project_corner")["s"], "s"),
        "harness.generate.s": (get("harness.generate")["s"], "s"),
        "harness.brute_force_primal.s": (get("harness.brute_force_primal")["s"], "s"),
        "harness.root_loop.self_s": (loop["self_s"], "s"),
        "trace.overhead": (loop["s"] / wall_untraced - 1.0, "frac"),
    }


def unaccounted(tracer: Tracer) -> float:
    """Traced root-loop time not covered by the self times of its layers.

    The self times of every layer called under root_loop, plus root_loop's
    own self time, partition the root-loop spans, so this is zero up to
    rounding unless a wrapped call escaped the stack bookkeeping.
    """
    inside = sum(
        stats["self_s"] for name, stats in tracer.layers.items()
        if name not in SETUP_LAYERS
    )
    return tracer.layer("harness.root_loop")["s"] - inside
