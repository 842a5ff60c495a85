"""The output contract in tier-1: seed-1 ``maxcut-sparse`` runs against their committed baseline.

``BENCH_41.json`` holds the runs lists of the seed-1 benchmark passes at
one BLAS thread (``outputs.workloads.<workload>.change_runs``) and at the
default thread count (``outputs_default_threads.<workload>.change_runs``).
This test regenerates the first ten ``maxcut-sparse`` instances, g05 n=20
at density 0.15 with instance seeds 1000-1009 as the benchmark makes them,
runs each under the modes split, submodular and both with the default
``RunConfig``, and holds d1, d2 and the closed gap to 1e-7 and the cut,
round and skip counts exactly, against the list of the thread setting it
runs at.  These 30 runs read the same at the default BLAS thread count and
at one thread, so the test does not depend on the machine's cores; another
OpenBLAS build could still move bits, so a failure prints the numpy and
BLAS configuration.  The dense and multilinear workloads do depend on the
thread count and are not checked here.

The inputs of all three seed-1 workloads are pinned too, by the input
fingerprint ``perfbench/bench.py`` prints: each instance file and its
``.sol`` sidecar hashed with their names, then the hashes of a workload's
instances hashed in order.  A change to a generator, a file writer or a
brute-force optimum moves it.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from subcut import harness

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_41.json"
INSTANCES = 10
MODES = ("split", "submodular", "both")
TOL = 1e-7


def blas_config() -> str:
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    build = np.show_config(mode="dicts").get("Build Dependencies")
    return f"numpy {np.__version__}, {threads}, build dependencies {build}"


@pytest.fixture(scope="module")
def baseline():
    record = json.loads(BASELINE.read_text())
    if os.environ.get("OPENBLAS_NUM_THREADS") == "1":
        runs = record["outputs"]["workloads"]["maxcut-sparse"]["change_runs"]
    else:
        runs = record["outputs_default_threads"]["maxcut-sparse"]["change_runs"]
    return {(r["instance"], r["mode"]): r for r in runs}


def test_seed1_maxcut_sparse_runs_match_the_baseline(tmp_path, baseline):
    paths = harness.generate_instances("g05", 20, count=INSTANCES, seed=1000, out_dir=tmp_path,
                                       density=0.15, max_lag=3)
    moved = []
    for path in paths:
        problem = harness.load_instance(path)
        primal = harness.reference_primal(problem, path)
        for mode in MODES:
            report = harness.root_loop(*harness.build_model(problem), harness.RunConfig(mode=mode),
                                       instance=path.stem, primal=primal)
            want = baseline[(path.stem, mode)]
            for key in ("d1", "d2", "closed"):
                if not abs(getattr(report, key) - want[key]) <= TOL:
                    moved.append((path.stem, mode, key, want[key], getattr(report, key)))
            for key in ("cuts", "rounds", "skipped", "failed"):
                if getattr(report, key) != want[key]:
                    moved.append((path.stem, mode, key, want[key], getattr(report, key)))
    assert not moved, f"runs moved from {BASELINE.name}: {moved}\n{blas_config()}"


# (kind, n, density, max_lag, instances) of each workload, as perfbench/bench.py defines them
WORKLOADS = {
    "maxcut-dense": (("g05", 20, 0.5, 3, 8), "ef6e3b21a14cb412cb1aa56c7fc3497f8e9fbbbe456936a59894f9a7eb2a900b"),
    "maxcut-sparse": (("g05", 20, 0.15, 3, 30), "78a2b7b6f8c4348b2b172e97253b9e2a18411e33cf0b9bc7ad41b122eff839d8"),
    "mubo-validated": (("autocorr", 12, 0.2, 2, 48),
                       "585474000abb5d8400f7900fd37fec587dacd2798ef8648134c7294385ea6d49"),
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed1_input_fingerprints(tmp_path, workload):
    (kind, n, density, max_lag, count), want = WORKLOADS[workload]
    digests = []
    for i in range(count):
        [path] = harness.generate_instances(kind, n, count=1, seed=1000 + i, out_dir=tmp_path,
                                            density=density, max_lag=max_lag)
        digest = hashlib.sha256()
        for f in (path, path.with_suffix(".sol")):
            digest.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
        digests.append(digest.hexdigest())
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == want
