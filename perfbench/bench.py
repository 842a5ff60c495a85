"""Root-node benchmark for subcut.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

One process drives a closed loop with a single client: each root-node run
(one instance under one cut mode, `harness.root_loop` with the default
`RunConfig`) starts only after the previous one has ended.  The instances
of a workload are generated from the seed with `harness.generate_instances`
(benchmark seed s gives instance seeds s*1000 + i), so the same seed gives
the same inputs and different seeds share none.

With --trace 0 the benchmark runs every (instance, mode) pair of the
workload once, then keeps cycling through them until --seconds have passed,
and reports the end-to-end metrics from the per-pair median times.  Three
more (run_ms.p50, peak_rss_mb, failed_frac) go on the RUNS line and into
the record but are not bounded; `ungated` says why.  With --trace 1 it runs
one untraced pass and then one pass with every layer wrapped (see
layers.py), and reports the per-layer metrics of the traced pass; the ratio
of the two passes is the tracing overhead.

Every run is checked: the failed flag, the bound invariants, identical
outcomes whenever a pair runs again, and in traced runs the agreement
between the traced layer counts and the run reports.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 0 only when every check passed.
A record of each run (bounds, closed gap, cuts, and in traced runs the
exact pivot, Newton, envelope and ray counts), the input fingerprint and
the environment go to perfbench/out/, and the spans of a traced run next
to it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from subcut import harness  # noqa: E402

from layers import Tracer, layer_metrics, unaccounted  # noqa: E402

SEED_STRIDE = 1000
EXACT_COUNTS = ("pivots", "newton_steps", "envelope_evals", "rays")
TOL = 1e-7  # slack of the bound invariants


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int
    density: float
    max_lag: int
    modes: tuple
    count: int  # instances per pass, sized so one pass takes about 25 s on 2 cores
    rotate: bool  # instance i runs only the i-th cutting mode (cyclically), plus none
    validated: bool  # whether RunConfig's validate_cuts="auto" checks cuts at this n

    def pairs(self) -> list:
        """The (instance index, mode) pairs of one pass."""
        cutting = [m for m in self.modes if m != "none"]
        return [
            (i, mode) for i in range(self.count) for mode in self.modes
            if not self.rotate or mode == "none" or mode == cutting[i % len(cutting)]
        ]


# maxcut-dense loads the LP: simplex.solve is over 90% of the loop, and mode
# none gives cold solves with no re-solve after them.  maxcut-sparse loads
# separation (envelope evaluations, Newton steps); mode both re-solves after
# appending two cut rows at once.  mubo-validated is the only workload small
# enough (n <= 12) for brute-force cut validation, and the only one running
# the multilinear oracle and reverse-linearized sets.
#
# Run times differ between instances far more than between repeats of one
# instance, and an instance that is slow under one cutting mode is slow under
# the others.  Where set-up is cheap next to a run (maxcut-dense,
# mubo-validated) the cutting modes therefore rotate over more instances,
# which keeps the pass length and narrows the spread from seed to seed.
# maxcut-sparse runs every mode on each instance, because its brute-force
# primal costs about as much as the three runs.
WORKLOADS = {w.name: w for w in (
    Workload("maxcut-dense", "g05", 20, 0.5, 3, ("none", "split", "submodular"), 8, True, False),
    Workload("maxcut-sparse", "g05", 20, 0.15, 3, ("split", "submodular", "both"), 30, False, False),
    Workload("mubo-validated", "autocorr", 12, 0.2, 2, ("split", "submodular", "both"), 48, True, True),
)}

# Wrapped layers that every traced pass must reach, on every workload.
# Validation is expected exactly where Workload.validated says; no workload
# has a target with an empty submodular part, so none calls gradient_cut.
EXPECTED_LAYERS = (
    "harness.brute_force_primal", "simplex.solve", "simplex.corner", "models.project_corner",
    "cuts.intersection_cut", "cuts.step_length", "envelope.eval",
)


@dataclass
class Instance:
    name: str
    model: object
    targets: list
    lift: object
    primal: float
    digest: str
    setup_s: float


def prepare(work: Workload, seed: int, workdir: Path, tracer=None) -> list:
    """Generate, load and model every instance; time each set-up."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    instances = []
    for i in range(work.count):
        t0 = perf_counter()
        with span("harness.generate"):
            [path] = harness.generate_instances(
                work.kind, work.n, count=1, seed=seed * SEED_STRIDE + i,
                out_dir=workdir, density=work.density, max_lag=work.max_lag,
            )
        with span("harness.load"):
            problem = harness.load_instance(path)
            primal = harness.reference_primal(problem, path)
        with span("models.build"):
            model, targets, lift = harness.build_model(problem)
        setup_s = perf_counter() - t0
        digest = hashlib.sha256()
        for f in (path, path.with_suffix(".sol")):
            digest.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
        instances.append(Instance(path.stem, model, targets, lift, primal, digest.hexdigest(), setup_s))
    return instances


def violations(report) -> list:
    """Broken output invariants of one run report (empty when it is sound)."""
    out = []
    if report.failed:
        out.append("failed flag set")
    if not report.d1 >= report.p - TOL:
        out.append(f"d1 {report.d1!r} below p {report.p!r}")
    if not report.p - TOL <= report.d2 <= report.d1 + TOL:
        out.append(f"d2 {report.d2!r} outside [p, d1] = [{report.p!r}, {report.d1!r}]")
    if not 0.0 <= report.closed <= 1.0 + TOL:
        out.append(f"closed {report.closed!r} outside [0, 1]")
    if report.mode == "none" and report.closed != 0.0:
        out.append(f"closed {report.closed!r} nonzero for mode none")
    return out


def run_once(inst: Instance, mode: str, tracer=None):
    """One root-node run; returns (seconds, outcome row, problems)."""
    if tracer:
        tracer.new_run()
    span = tracer.span("harness.root_loop") if tracer else nullcontext()
    t0 = perf_counter()
    with span:
        try:
            report = harness.root_loop(
                inst.model, inst.targets, inst.lift, harness.RunConfig(mode=mode),
                instance=inst.name, primal=inst.primal,
            )
        except Exception as exc:  # a run that raises is a failed run; keep measuring
            report, error = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if report is None:
        return seconds, {"instance": inst.name, "mode": mode, "error": error}, [error]
    row = {
        "instance": inst.name, "mode": mode,
        "d1": report.d1, "d2": report.d2, "p": report.p, "closed": report.closed,
        "cuts": report.cuts, "rounds": report.rounds, "skipped": report.skipped,
        "failed": report.failed,
    }
    if tracer:
        row.update((k, tracer.run[k]) for k in EXACT_COUNTS)
    return seconds, row, violations(report)


class Pass:
    """Times, outcomes and problems of the runs of one measurement."""

    def __init__(self):
        self.times = {}
        self.rows = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def add(self, key, seconds, row, problems):
        self.attempted += 1
        first = self.rows.setdefault(key, row)
        if first is not row and _outcome(first) != _outcome(row):
            problems = problems + [f"outcome changed on repeat: {_outcome(first)} -> {_outcome(row)}"]
        self.times.setdefault(key, []).append(seconds)
        if problems:
            self.failed += 1
            self.problems += [f"{key[0]}/{key[1]}: {p}" for p in problems]

    def medians(self) -> dict:
        return {key: statistics.median(ts) for key, ts in self.times.items()}


def _outcome(row) -> tuple:
    return tuple(row.get(k) for k in ("d1", "d2", "closed", "cuts", "rounds", "skipped", "error"))


def measure(work: Workload, instances: list, seconds: float, tracer=None) -> Pass:
    """Run every (instance, mode) pair once, then cycle until `seconds` pass.

    A traced measurement runs each pair exactly once.
    """
    keys = work.pairs()
    result = Pass()
    deadline = perf_counter() + seconds
    for idx in itertools.count():
        if idx >= len(keys) and (tracer or perf_counter() >= deadline):
            break
        i, mode = keys[idx % len(keys)]
        inst = instances[i]
        result.add((inst.name, mode), *run_once(inst, mode, tracer))
    return result


def end_to_end(work: Workload, instances: list, run: Pass) -> dict:
    """The gated end-to-end metrics (BENCHMARK.json bounds them)."""
    per_run = run.medians()
    wall = sum(per_run.values())
    rows = run.rows.values()
    closed = [r["closed"] for r in rows if r["mode"] != "none" and "error" not in r and not r["failed"]]
    return {
        "wall_s": (wall, "s"),
        "cuts_per_s": (sum(r.get("cuts", 0) for r in rows) / wall, "1/s"),
        "closed_gap": (harness.shifted_geomean(closed) if closed else float("nan"), "frac"),
        "setup_s": (len(instances) * statistics.median(i.setup_s for i in instances), "s"),
    }


def ungated(run: Pass) -> dict:
    """End-to-end metrics that are printed and recorded but not bounded.

    Both move by about 20% from one seed to the next with no change to the
    program, more than any bound the benchmark may set: the runs of the
    different cutting modes form separate clusters of times and the median
    falls between them, and the peak RSS is set by the brute-force primal's
    temporary arrays, whose size follows the edge count and decides whether
    the allocator maps them fresh or reuses the heap.
    """
    return {
        "run_ms.p50": (1e3 * statistics.median(run.medians().values()), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (run.failed / run.attempted, "frac"),
    }


def coverage_problems(work: Workload, tracer: Tracer, run: Pass) -> list:
    """Disagreements between the traced layer counts and the run reports."""
    calls = {name: stats["calls"] for name, stats in tracer.layers.items()}
    out = [f"layer {name} recorded no calls" for name in EXPECTED_LAYERS if not calls.get(name)]
    if bool(calls.get("cuts.validate")) != work.validated:
        out.append(f"cuts.validate calls {calls.get('cuts.validate', 0)} but validated={work.validated}")
    rows = run.rows.values()
    emitted = sum(tracer.layer(n)["emitted"] for n in ("cuts.intersection_cut", "cuts.gradient_cut"))
    attempts = calls.get("cuts.intersection_cut", 0) + calls.get("cuts.gradient_cut", 0)
    cuts = sum(r.get("cuts", 0) for r in rows)
    skipped = sum(r.get("skipped", 0) for r in rows)
    if cuts != emitted:
        out.append(f"reports add {cuts} cuts but the separators emitted {emitted}")
    if skipped != attempts - emitted:
        out.append(f"reports skip {skipped} candidates but separators declined {attempts - emitted}")
    gap = unaccounted(tracer)
    if abs(gap) > 1e-6 * max(1.0, tracer.layer("harness.root_loop")["s"]):
        out.append(f"layer self times miss {gap!r} s of the traced root-loop time")
    return out


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS", "default"),
        "seed": seed,
    }


def _named(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def benchmark(work: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Set up, measure and check one workload; writes the run record to out_dir.

    The returned `metrics` are the end-to-end ones, or with `trace` the
    per-layer ones of the traced pass.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    workdir = Path(tempfile.mkdtemp(prefix=f"{work.name}-s{seed}-", dir=out_dir))
    try:
        with tracer.installed() if trace else nullcontext():
            instances = prepare(work, seed, workdir, tracer)
    finally:
        shutil.rmtree(workdir)

    run = measure(work, instances, seconds)
    problems = list(run.problems)
    attempted, failed = run.attempted, run.failed
    env = environment(seed)
    digests = {inst.name: inst.digest for inst in instances}
    record = {
        "workload": work.name,
        "env": env,
        "fingerprint": hashlib.sha256("".join(digests.values()).encode()).hexdigest(),
        "instances": digests,
        "end_to_end": _named(end_to_end(work, instances, run)),
        "ungated": _named(ungated(run)),
    }
    metrics = record["end_to_end"]
    if trace:
        with tracer.installed():
            traced = measure(work, instances, seconds, tracer)
        problems += traced.problems
        problems += [f"{k[0]}/{k[1]}: traced outcome differs from untraced"
                     for k, row in traced.rows.items() if _outcome(row) != _outcome(run.rows[k])]
        problems += coverage_problems(work, tracer, traced)
        attempted += traced.attempted
        failed += traced.failed
        metrics = record["per_layer"] = _named(layer_metrics(tracer, metrics["wall_s"]["value"]))
        env["trace.overhead"] = metrics["trace.overhead"]["value"]
        run = traced  # its rows carry the exact counts
    record["runs"] = list(run.rows.values())
    record["times_s"] = {f"{k[0]}/{k[1]}": ts for k, ts in run.times.items()}
    record["problems"] = problems

    stem = f"{work.name}-s{seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")
    return {
        "record": record,
        "tracer": tracer,
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        print(f"subcut imported from {harness.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    res = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT)
    record = res["record"]
    print("ENV " + json.dumps(record["env"]))
    print(f"INPUT fingerprint={record['fingerprint']} instances={len(record['instances'])}")
    print(f"RUNS attempted={res['attempted']} failed={res['failed']}"
          f" pairs={len(record['runs'])} (the samples of run_ms.p50) "
          + " ".join(f"{k}={v['value']!r} {v['unit']}" for k, v in record["ungated"].items()))
    for problem in record["problems"]:
        print("PROBLEM " + problem)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
