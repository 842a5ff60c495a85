"""Checks of the benchmark itself, on smoke-sized traced runs."""

import dataclasses
import json
from types import SimpleNamespace

import pytest

import bench
from layers import SETUP_LAYERS


def smoke(name, seed, out_dir):
    """Traced run on the fewest instances that still reach every mode."""
    work = bench.WORKLOADS[name]
    count = len([m for m in work.modes if m != "none"]) if work.rotate else 1
    return bench.benchmark(dataclasses.replace(work, count=count), seed, 0, True, out_dir)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    return {name: smoke(name, 7, out) for name in bench.WORKLOADS}


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_layer_records_where_expected(traced, name):
    res = traced[name]
    assert res["correct"], res["record"]["problems"]
    assert res["failed"] == 0
    metrics = res["metrics"]
    for key in ("simplex.solve.calls", "simplex.corner.s", "cuts.intersection_cut.calls",
                "cuts.step_length.calls", "envelope.eval.calls", "models.build.s",
                "models.project_corner.s", "harness.generate.s", "harness.brute_force_primal.s"):
        assert metrics[key]["value"] > 0, key
    assert (metrics["cuts.validate.calls"]["value"] > 0) == (name == "mubo-validated")
    assert set(metrics) == {m["name"] for m in _spec()["per_layer"]}
    assert set(res["record"]["end_to_end"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert res["record"]["ungated"]["failed_frac"]["value"] == 0.0


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_reports_agree_with_separator_counts(traced, name):
    tracer = traced[name]["tracer"]
    runs = traced[name]["record"]["runs"]
    emitted = tracer.layer("cuts.intersection_cut")["emitted"] + tracer.layer("cuts.gradient_cut")["emitted"]
    calls = tracer.layer("cuts.intersection_cut")["calls"] + tracer.layer("cuts.gradient_cut")["calls"]
    assert sum(r["cuts"] for r in runs) == emitted
    assert sum(r["skipped"] for r in runs) == calls - emitted
    assert sum(r["rays"] for r in runs) == tracer.layer("cuts.step_length")["calls"]
    assert sum(r["pivots"] for r in runs) == tracer.layer("simplex.solve")["pivots"]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_layer_self_times_add_up_to_root_loop(traced, name):
    tracer = traced[name]["tracer"]
    loop = tracer.layer("harness.root_loop")["s"]
    inside = sum(s["self_s"] for n, s in tracer.layers.items() if n not in SETUP_LAYERS)
    assert inside == pytest.approx(loop, rel=1e-9)
    spans = {s[0]: s for s in tracer.spans}
    for span_id, name_, start, end, parent in tracer.spans:
        assert start <= end
        if name_ in ("simplex.solve", "cuts.intersection_cut"):
            assert spans[parent][1] == "harness.root_loop"


def test_repeat_gives_identical_record(traced, tmp_path):
    again = smoke("maxcut-sparse", 7, tmp_path)
    first = traced["maxcut-sparse"]["record"]
    assert again["record"]["fingerprint"] == first["fingerprint"]
    assert again["record"]["runs"] == first["runs"]
    other = smoke("maxcut-sparse", 8, tmp_path)
    assert other["record"]["fingerprint"] != first["fingerprint"]


def test_violations_flag_broken_invariants():
    def report(**kw):
        base = dict(mode="split", failed=False, d1=10.0, d2=9.0, p=8.0, closed=0.5)
        return SimpleNamespace(**{**base, **kw})

    assert bench.violations(report()) == []
    assert bench.violations(report(failed=True))
    assert bench.violations(report(d1=7.0, d2=7.0))
    assert bench.violations(report(d2=10.5))
    assert bench.violations(report(d2=7.5))
    assert bench.violations(report(closed=1.1))
    assert bench.violations(report(closed=float("nan")))
    assert bench.violations(report(mode="none", closed=0.5))


def test_workloads_match_spec():
    assert list(bench.WORKLOADS) == [w["name"] for w in _spec()["workloads"]]


def test_rotation_runs_none_everywhere_and_each_cutting_mode_equally():
    work = dataclasses.replace(bench.WORKLOADS["maxcut-dense"], count=4)
    assert work.pairs() == [(0, "none"), (0, "split"), (1, "none"), (1, "submodular"),
                            (2, "none"), (2, "split"), (3, "none"), (3, "submodular")]
    sparse = dataclasses.replace(bench.WORKLOADS["maxcut-sparse"], count=2)
    assert len(sparse.pairs()) == 6


def _spec():
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())
