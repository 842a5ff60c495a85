"""Command line front end: root runs, instance checks, generators, benchmarks."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import harness
from .envelope import envelope_eval
from .errors import CAPACITY, CapacityError, ModelError
from .harness import RunConfig
from .models import BmpInstance
from .oracles import MultilinearFunction, cube_points, cube_table, ss_decompose, submodular_by_sign


def _add_root(sub):
    defaults = RunConfig()
    p = sub.add_parser("root", help="run the root-node cut loop on one instance")
    p.add_argument("instance", help="instance file (.mc or .pol)")
    p.add_argument("--cuts", default=defaults.mode, choices=harness.MODES, help="cut mode")
    p.add_argument("--rounds", type=int, default=defaults.rounds)
    p.add_argument("--max-cuts", type=int, default=defaults.max_cuts_per_round, help="cuts per round cap")
    p.add_argument("--primal", default=None, help="reference optimum override (a finite number)")
    p.add_argument("--validate", default=defaults.validate_cuts, choices=harness.VALIDATE_MODES)
    p.add_argument("--report", default=None, help="write a one-row CSV here")


def _add_verify(sub):
    p = sub.add_parser("verify", help="model-level sanity checks on one instance")
    p.add_argument("instance")


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate seeded instances")
    p.add_argument("kind", choices=harness.GENERATORS)
    p.add_argument("-n", type=int, required=True, help="number of variables")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--max-lag", type=int, default=3, help="autocorr lag span")
    p.add_argument("--out", default=".", help="output directory")


def _add_bench(sub):
    p = sub.add_parser("bench", help="run a directory of instances under a config")
    p.add_argument("directory")
    p.add_argument("--config", default=None, help="JSON file with RunConfig keys (+ optional 'modes' list)")
    p.add_argument("--report", default=None, help="write the per-run CSV here")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="subcut",
                                 description="intersection cuts for submodular objectives over binary variables")
    ap.add_argument("-v", "--verbose", action="store_true", help="log model/cut lines")
    sub = ap.add_subparsers(dest="command", required=True)
    _add_root(sub)
    _add_verify(sub)
    _add_gen(sub)
    _add_bench(sub)
    return ap


def _error(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def cmd_root(args) -> int:
    try:
        config = RunConfig(mode=args.cuts, rounds=args.rounds,
                           max_cuts_per_round=args.max_cuts, validate_cuts=args.validate)
    except ValueError as exc:  # an out-of-range setting
        return _error(exc)
    report = harness.run_instance(args.instance, config, primal=args.primal)
    print(harness.CSV_HEADER)
    print(report.csv_row())
    if report.failed:
        print("warning: LP failure, report is partial", file=sys.stderr)
    if args.report:
        harness.write_report_csv([report], args.report)
    return 1 if report.failed else 0


def _check(name, ok, detail="") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {name}{(' ' + detail) if detail and not ok else ''}")
    return ok


def _fits(name, capacity, n) -> bool:
    """Whether n is within CAPACITY[capacity]; prints a SKIP line for check ``name`` if not."""
    limit = CAPACITY[capacity]
    if n > limit:
        print(f"SKIP {name} (n > {limit})")
    return n <= limit


def _verify_graph(instance: BmpInstance, path: Path) -> bool:
    """The checks of a max-cut instance, whose objective is its cut polynomial."""
    ok = True
    f, n = instance.objective, instance.n
    ok &= _check("normalized(f(0)=0)", abs(f.value(np.zeros(n))) <= 1e-12)
    ok &= _check("submodular", submodular_by_sign(f), "a term of degree >= 2 has a positive coefficient")
    if _fits("extension_identity", "cube enumeration", n):
        gap = envelope_eval(f, cube_points(n)).value - cube_table(f)
        worst = float(np.max(np.abs(gap)))
        ok &= _check("extension_identity", worst <= 1e-9, f"max |F(x)-f(x)| = {worst:.3g}")
    ok &= _verify_optimum(instance, path)
    return ok


def _residual(ss, func: MultilinearFunction) -> MultilinearFunction:
    """f1 - f2 - func, term by term.

    A multilinear polynomial is zero on the cube exactly when all of its
    coefficients are, so the decomposition reproduces ``func`` exactly when
    this has no term.
    """
    negated = [(-a, s) for a, s in ss.f2.terms + func.terms]
    return MultilinearFunction(func.n, ss.f1.terms + negated)


def _verify_poly(instance: BmpInstance, path: Path) -> bool:
    ok = True
    funcs = [("objective", instance.objective)]
    funcs += [(f"constraint{i + 1}", c) for i, c in enumerate(instance.constraints)]
    for label, func in funcs:
        ss = ss_decompose(func, level=1)
        ok &= _check(f"{label}_parts_submodular", submodular_by_sign(ss.f1) and submodular_by_sign(ss.f2))
        worst = max((abs(a) for a, _ in _residual(ss, func).terms), default=0.0)
        ok &= _check(f"{label}_decomposition_identity", worst == 0.0,
                     f"largest leftover coefficient {worst:.3g}")
    ok &= _verify_optimum(instance, path)
    return ok


def _verify_optimum(instance: BmpInstance, path: Path) -> bool:
    """Checks against the brute-force optimum p: ``root``'s own guard with no cut round, then the sidecar.

    The guard fails when p exceeds d1.  A ``.sol`` sidecar, when there is
    one, must equal p within ``BOUND_TOL`` * (1 + |p|).
    """
    sidecar = harness.sidecar_primal(path)
    names = ["bound_dominates_optimum"] + ([] if sidecar is None else ["sidecar_matches_optimum"])
    if not all([_fits(name, "brute force", instance.n) for name in names]):  # a list: every SKIP prints
        return True
    best = harness.brute_force_primal(instance)
    try:
        report = harness.root_loop(*harness.build_model(instance), RunConfig(mode="none", rounds=0),
                                   instance=path.stem, primal=best)
    except ModelError as exc:  # the guard of root: p above d1
        ok = _check("bound_dominates_optimum", False, str(exc))
    else:
        ok = _check("bound_dominates_optimum", not report.failed, "LP failure")
    if sidecar is not None:
        ok &= _check("sidecar_matches_optimum", abs(sidecar - best) <= harness.BOUND_TOL * (1.0 + abs(best)),
                     f"{path.with_suffix('.sol').name} holds {sidecar:.12g}, brute force gives {best:.12g}")
    return ok


def cmd_verify(args) -> int:
    path = Path(args.instance)
    instance = harness.load_instance(path)
    verify = _verify_graph if path.suffix == ".mc" else _verify_poly
    return 0 if verify(instance, path) else 1


def cmd_gen(args) -> int:
    try:
        paths = harness.generate_instances(args.kind, args.n, count=args.count,
                                           seed=args.seed, out_dir=args.out,
                                           density=args.density, max_lag=args.max_lag)
    except ValueError as exc:  # an out-of-range setting
        return _error(exc)
    for p in paths:
        print(p)
    return 0


def cmd_bench(args) -> int:
    directory = Path(args.directory)
    paths = sorted(directory.glob("*.mc")) + sorted(directory.glob("*.pol"))
    if not paths:
        print(f"no .mc or .pol instances under {directory}", file=sys.stderr)
        return 1
    config, modes = RunConfig(), None
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
            config = RunConfig.from_dict(raw)
        except (OSError, TypeError, ValueError) as exc:
            print(f"error: bad config {args.config}: {exc}", file=sys.stderr)
            return 2
        modes = raw.get("modes")
    reports = harness.run_benchmark(paths, config, modes=modes)
    if args.report:
        harness.write_report_csv(reports, args.report)
    print(harness.CSV_HEADER)
    for r in reports:
        print(r.csv_row())
    failed = sum(r.failed for r in reports)
    if failed:
        print(f"warning: LP failure in {failed} of {len(reports)} runs, left out of the summary",
              file=sys.stderr)
    # aggregate leaves failed runs out, and so every mode without a live run
    summary = harness.aggregate(reports) if failed < len(reports) else {}
    print("mode,closed,time_s,cuts,runs")
    for mode, row in summary.items():
        print(f"{mode},{row['closed']:.4f},"
              f"{row['time']:.3f},{row['cuts']:.2f},{row['runs']}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s",
        stream=sys.stderr,
    )
    try:
        if args.command == "root":
            return cmd_root(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "bench":
            return cmd_bench(args)
    except (CapacityError, ModelError, OSError) as exc:
        return _error(exc)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
