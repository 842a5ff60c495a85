import ast
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

import _reference as ref
import subcut
from subcut import cli, harness, simplex
from subcut.cuts import IntersectionCut
from subcut.errors import CAPACITY, CapacityError, ModelError, NumericError
from subcut.harness import (
    CSV_HEADER,
    RootNodeReport,
    RunConfig,
    aggregate,
    autocorr_polynomial,
    brute_force_primal,
    build_model,
    closed_gap,
    generate_instances,
    load_instance,
    pw_graph,
    reference_primal,
    root_loop,
    run_benchmark,
    run_instance,
    shifted_geomean,
    sidecar_primal,
    split_selector,
    write_report_csv,
)
from subcut.models import BmpInstance, LiftMap
from subcut.oracles import (
    CubeBasis,
    Graph,
    MultilinearFunction,
    READERS,
    SSFunction,
    cut_polynomial,
    read_graph,
    write_graph,
    write_polynomial,
)
from subcut.simplex import LpModel


def k3_graph():
    return Graph(3, ref.K3_EDGES)


def k3_instance():
    return ref.cut_instance(k3_graph())


def k3_setup():
    model, targets, lift = build_model(k3_instance())
    return model, targets, lift


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.mode == "submodular"
        assert cfg.rounds == 10
        assert cfg.max_cuts_per_round == 50
        assert cfg.validate_cuts == "auto"

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            RunConfig(mode="everything")

    def test_negative_rounds(self):
        with pytest.raises(ValueError):
            RunConfig(rounds=-1)

    def test_nonpositive_tolerance(self):
        # separation tolerances are cuts.py constants, so any value is an unknown key
        for value in (0.0, 1e-3):
            with pytest.raises(ValueError, match="unknown config keys"):
                RunConfig.from_dict({"efficacy_min": value})

    def test_bad_validation_switch(self):
        with pytest.raises(ValueError):
            RunConfig(validate_cuts="sometimes")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"mode": "none", "cleverness": 11})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"mode": "none", "seed": 0})

    def test_from_dict_ignores_benchmark_modes_key(self):
        cfg = RunConfig.from_dict({"rounds": 4, "modes": ["none", "split"]})
        assert cfg.rounds == 4

    def test_from_dict_rejects_mode_beside_modes(self):
        # a benchmark runs every entry of modes, so a mode beside them would go unread
        with pytest.raises(ValueError, match="set mode or modes, not both"):
            RunConfig.from_dict({"mode": "split", "modes": ["none", "split"]})


class TestMetrics:
    def test_closed_gap_full(self):
        assert closed_gap(3.0, 2.0, 2.0) == pytest.approx(1.0)

    def test_closed_gap_none(self):
        assert closed_gap(3.0, 3.0, 2.0) == pytest.approx(0.0)

    def test_closed_gap_degenerate(self):
        assert closed_gap(2.0, 2.0, 2.0) == 0.0
        assert closed_gap(2.0, 2.0, 5.0) == 0.0  # bound below the optimum: count 0

    def test_closed_gap_nan(self):
        assert math.isnan(closed_gap(3.0, 2.0, math.nan))

    def test_split_selector_most_fractional(self):
        assert split_selector([0.5, 0.9, 0.1]) == 0

    def test_split_selector_tie(self):
        assert split_selector([0.4, 0.6]) == 0

    def test_split_selector_integral(self):
        assert split_selector([0.0, 1.0]) is None

    def test_shifted_geomean_two_point(self):
        assert shifted_geomean([0.0, 3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_shifted_geomean_constant(self):
        assert shifted_geomean([0.7, 0.7, 0.7]) == pytest.approx(0.7, abs=1e-12)

    def test_shifted_geomean_empty(self):
        with pytest.raises(ValueError):
            shifted_geomean([])

    def test_shifted_geomean_domain(self):
        with pytest.raises(ValueError):
            shifted_geomean([-1.0])


def fake_report(mode, closed, cuts=1, failed=False):
    return RootNodeReport(
        instance="fake", mode=mode, d1=3.0, d2=3.0 - closed, p=2.0,
        closed=closed, cuts=cuts, sep_time_ms=1.0, total_time_ms=2.0, failed=failed,
    )


class TestAggregate:
    def test_failed_runs_excluded(self):
        reports = [fake_report("split", 0.4), fake_report("split", 0.9, failed=True)]
        out = aggregate(reports)
        assert out["split"]["runs"] == 1
        assert out["split"]["closed"] == pytest.approx(0.4)

    def test_all_failed(self):
        with pytest.raises(ValueError):
            aggregate([fake_report("split", 0.4, failed=True)])

    def test_columns(self):
        out = aggregate([fake_report("ss", 0.25, cuts=3)])
        row = out["ss"]
        assert set(row) == {"closed", "time", "cuts", "runs"}
        assert row["cuts"] == pytest.approx(3.0)


class TestGenerators:
    def test_g05_unit_weights(self):
        g = pw_graph(10, seed=1, max_weight=1)
        assert g.n == 10
        assert all(w == 1.0 for _, _, w in g.edges)
        assert 10 <= g.m <= 35  # density 0.5 of 45 pairs, loose band

    def test_g05_deterministic(self):
        assert pw_graph(12, seed=7, max_weight=1).edges == pw_graph(12, seed=7, max_weight=1).edges
        assert pw_graph(12, seed=7, max_weight=1).edges != pw_graph(12, seed=8, max_weight=1).edges

    def test_g05_density_extremes(self):
        assert pw_graph(6, density=1.0, seed=0, max_weight=1).m == 15
        assert pw_graph(6, density=0.0, seed=0, max_weight=1).m == 0

    def test_pw_weight_range(self):
        g = pw_graph(10, seed=2)
        assert g.m > 0
        for _, _, w in g.edges:
            assert 1.0 <= w <= 100.0 and w == int(w)

    def test_autocorr_support_shapes(self):
        poly = autocorr_polynomial(5, max_lag=2, seed=0)
        assert poly.n == 5
        sizes = {len(s) for _, s in poly.terms}
        assert sizes <= {2, 4}
        for a, s in poly.terms:
            assert a in (-1.0, 1.0)
            idx = sorted(s)
            if len(s) == 2:
                assert idx[1] - idx[0] <= 2
            else:
                i, k, j, l = idx
                lags = {d for d in (k - i, l - j, j - i, l - k)}
                assert any(1 <= d <= 2 for d in lags)

    def test_autocorr_pair_terms_cover_all_lags(self):
        poly = autocorr_polynomial(6, max_lag=3, seed=1)
        pair_lags = {max(s) - min(s) for _, s in poly.terms if len(s) == 2}
        assert pair_lags == {1, 2, 3}

    def test_autocorr_density_subsamples_quads(self):
        dense = autocorr_polynomial(10, max_lag=3, density=1.0, seed=4)
        sparse = autocorr_polynomial(10, max_lag=3, density=0.3, seed=4)
        quads = lambda p: sum(1 for _, s in p.terms if len(s) == 4)
        assert quads(sparse) < quads(dense)
        # pair terms never subsampled
        pairs = lambda p: sum(1 for _, s in p.terms if len(s) == 2)
        assert pairs(sparse) == pairs(dense)

    def test_minimum_size(self):
        for gen in (pw_graph, autocorr_polynomial):
            with pytest.raises(ValueError):
                gen(1)


class TestInstanceFiles:
    def test_generate_and_load_graph(self, tmp_path):
        paths = generate_instances("g05", 6, count=2, seed=3, out_dir=tmp_path)
        assert len(paths) == 2
        assert {p.suffix for p in paths} == {".mc"}
        inst = load_instance(paths[0])
        assert isinstance(inst, BmpInstance) and inst.n == 6
        assert inst.constraints == [] and inst.cardinality is None
        assert inst.objective.terms == cut_polynomial(pw_graph(6, seed=3, max_weight=1)).terms

    def test_generate_and_load_poly(self, tmp_path):
        (path,) = generate_instances("autocorr", 5, seed=1, out_dir=tmp_path)
        assert path.suffix == ".pol"
        inst = load_instance(path)
        assert isinstance(inst, BmpInstance) and inst.n == 5

    def test_sidecar_written_and_read(self, tmp_path):
        (path,) = generate_instances("pw", 6, seed=5, out_dir=tmp_path)
        value = sidecar_primal(path)
        assert value == pytest.approx(brute_force_primal(ref.cut_instance(pw_graph(6, seed=5))), abs=1e-9)

    def test_sidecar_missing(self, tmp_path):
        assert sidecar_primal(tmp_path / "nothing.mc") is None

    @pytest.mark.parametrize("token", ["abc", "nan", "inf", "-inf"])
    def test_sidecar_not_a_finite_number(self, tmp_path, token):
        (path,) = generate_instances("g05", 6, seed=0, out_dir=tmp_path)
        path.with_suffix(".sol").write_text(f"{token}\n")
        with pytest.raises(ModelError, match="finite number"):
            sidecar_primal(path)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            generate_instances("dense", 6, out_dir=tmp_path)

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "inst.lp"
        path.write_text("")
        with pytest.raises(ModelError):
            load_instance(path)


class TestBruteForcePrimal:
    def test_k3(self):
        assert brute_force_primal(k3_instance()) == 2.0

    def test_empty_graph(self):
        assert brute_force_primal(ref.cut_instance(Graph(4, []))) == 0.0

    def test_matches_reference_on_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            edges = [
                (i, j, float(rng.integers(1, 9)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.6
            ]
            g = Graph(n, edges)
            want = ref.best_binary(lambda bits: ref.cut_value(edges, bits), n)
            assert brute_force_primal(ref.cut_instance(g)) == pytest.approx(want, abs=1e-9)

    def test_matches_reference_on_constrained_polys(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            def rand_poly():
                terms = []
                for _ in range(int(rng.integers(1, 5))):
                    size = int(rng.integers(1, min(n, 3) + 1))
                    support = set(rng.choice(n, size=size, replace=False).tolist())
                    terms.append((float(rng.integers(-4, 5)), support))
                terms = [(a, s) for a, s in terms if a != 0.0] or [(1.0, {0})]
                return MultilinearFunction(n, terms)
            inst = BmpInstance(rand_poly(), [rand_poly()])
            accept = lambda bits: ref.multilinear_value(inst.constraints[0].terms, bits) >= 0
            want = ref.best_binary(
                lambda bits: ref.multilinear_value(inst.objective.terms, bits), n, accept
            )
            if want == -math.inf:
                with pytest.raises(ModelError):
                    brute_force_primal(inst)
            else:
                assert brute_force_primal(inst) == pytest.approx(want, abs=1e-9)

    def test_cardinality_filter(self):
        poly = MultilinearFunction(3, [(1.0, {0}), (1.0, {1}), (1.0, {2})])
        inst = BmpInstance(poly, cardinality=2)
        assert brute_force_primal(inst) == pytest.approx(2.0)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_force_primal(ref.cut_instance(Graph(21, [(0, 1, 1.0)])))

    def test_single_variable(self):
        assert brute_force_primal(BmpInstance(MultilinearFunction(1, [(-3.0, {0})]))) == 0.0
        assert brute_force_primal(BmpInstance(MultilinearFunction(1, [(3.0, {0})]))) == 3.0

    def test_infeasible_constraints(self):
        poly = MultilinearFunction(4, [(1.0, {0}), (1.0, {1, 3})])
        # every polynomial is 0 at the origin, so only a cardinality can exclude it
        origin_only = MultilinearFunction(4, [(-1.0, {j}) for j in range(4)])
        assert brute_force_primal(BmpInstance(poly, [origin_only])) == 0.0
        with pytest.raises(ModelError):
            brute_force_primal(BmpInstance(poly, [origin_only], cardinality=2))
        with pytest.raises(ModelError):
            brute_force_primal(BmpInstance(poly, cardinality=5))

    def test_negative_weight(self, tmp_path):
        with pytest.raises(ModelError):
            cut_polynomial(Graph(3, [(0, 1, 1.0), (1, 2, -1.0)]))
        path = tmp_path / "neg.mc"
        path.write_text("3 2\n1 2 1.0\n2 3 -1.0\n")
        with pytest.raises(ModelError) as info:
            load_instance(path)
        assert str(info.value) == f"{path}: negative cut weight -1.0 on edge (2,3)"

    def test_unknown_problem(self):
        with pytest.raises(ModelError):
            brute_force_primal(MultilinearFunction(3, [(1.0, {0})]))

    def test_reference_prefers_sidecar(self, tmp_path):
        path = tmp_path / "k3.mc"
        write_graph(k3_graph(), path)
        path.with_suffix(".sol").write_text("41.5 0 1 0\n")
        assert reference_primal(k3_instance(), path) == 41.5

    def test_reference_falls_back_to_enumeration(self, tmp_path):
        path = tmp_path / "k3.mc"
        write_graph(k3_graph(), path)
        assert reference_primal(k3_instance(), path) == 2.0

    def test_reference_too_big_without_sidecar(self):
        with pytest.raises(CapacityError):
            reference_primal(ref.cut_instance(Graph(21, [(0, 1, 1.0)])))


def _constrained_n14():
    # seeded so that the constraint and the cardinality both cut off the unconstrained optima
    rng = np.random.default_rng(15)
    terms = [
        (float(rng.integers(-5, 6)), rng.choice(14, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(30)
    ]
    constraint = MultilinearFunction(14, terms)
    return BmpInstance(autocorr_polynomial(14, 3, 0.5, seed=2), [constraint], cardinality=6)


class TestBruteForceDifferential:
    """The split-cube primal against the former chunked walk, at benchmark sizes."""

    @pytest.mark.parametrize("make", [
        lambda: pw_graph(20, 0.15, seed=1000, max_weight=1),
        lambda: pw_graph(20, 0.5, seed=1001, max_weight=1),
        lambda: pw_graph(19, 0.5, seed=7, max_weight=100),
        lambda: Graph(15, [(0, 3, 2.0), (3, 9, 5.0), (9, 12, 1.0), (0, 12, 4.0), (2, 3, 3.0)]),
        lambda: BmpInstance(autocorr_polynomial(12, 2, 0.2, seed=1000)),
        lambda: BmpInstance(autocorr_polynomial(13, 3, 1.0, seed=3)),
        _constrained_n14,
    ], ids=["g05-n20-d0.15", "g05-n20-d0.5", "pw-n19", "isolated-vertices",
            "autocorr-n12", "autocorr-n13", "constrained-n14"])
    def test_equals_chunked_walk(self, make):
        problem = make()
        want = ref.chunked_primal(problem)
        assert want > -math.inf
        if isinstance(problem, Graph):
            problem = ref.cut_instance(problem)
        assert brute_force_primal(problem) == want


class TestBruteForceFullTable:
    """The blockwise primal against the max of the full cube table it replaced, exactly."""

    @staticmethod
    def random_poly(rng, n, count, high=9):
        terms = []
        for _ in range(count):
            size = int(rng.integers(1, min(n, 4) + 1))
            terms.append((float(rng.integers(-high, high + 1)), rng.choice(n, size=size, replace=False).tolist()))
        return MultilinearFunction(n, terms)

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12, 16, 19, 20])
    @pytest.mark.parametrize("constrained, cardinal", [(False, False), (True, False), (False, True), (True, True)],
                             ids=["free", "constraint", "cardinality", "both"])
    def test_same_optimum_as_the_full_table(self, n, constrained, cardinal):
        rng = np.random.default_rng(1000 * n + 2 * constrained + cardinal)
        objective = self.random_poly(rng, n, 3 * n)
        constraints = [self.random_poly(rng, n, n, high=3)] if constrained else []
        inst = BmpInstance(objective, constraints, int(rng.integers(0, n + 1)) if cardinal else None)
        want = ref.former_brute_force_primal(inst)
        if want == -math.inf:
            with pytest.raises(ModelError, match="no feasible binary point"):
                brute_force_primal(inst)
        else:
            got = brute_force_primal(inst)
            assert got == want and f"{got:.12g}" == f"{want:.12g}"  # the .sol text, so no -0

    def test_zero_optimum_is_positive_zero(self):
        # every point is at most 0, so the optimum is the origin's 0, written "0" and not "-0"
        value = brute_force_primal(BmpInstance(MultilinearFunction(4, [(-1.0, {j}) for j in range(4)])))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def full_cube_primal(inst):
    """The optimum by ``CubeBasis.least`` over the instance's whole cube, with nothing dropped."""
    f = inst.objective
    basis = CubeBasis(f.n, [s for _, s in f.terms])
    least, _ = basis.least(np.array([-a for a, _ in f.terms], dtype=float), inst.infeasible())
    return -math.inf if least == math.inf else 0.0 - least


class TestBruteForceReduced:
    """The primal over the cube that changes f against the whole cube's, exactly."""

    @staticmethod
    def check(inst, monkeypatch, basis_n):
        """The primal equals the whole cube's, from one CubeBasis over ``basis_n`` variables."""
        want, sizes = full_cube_primal(inst), []

        def recording(n, supports):
            sizes.append(n)
            return CubeBasis(n, supports)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "CubeBasis", recording)
            got = brute_force_primal(inst)
        assert sizes == [basis_n]
        assert got == want and f"{got:.12g}" == f"{want:.12g}"  # the .sol text, so no -0

    def test_equals_the_whole_cube(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def cases(draw):
            n = draw(st.integers(1, 10))
            support = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 3))
            terms = draw(st.lists(st.tuples(st.integers(-9, 9).map(float), support), max_size=12))
            family = draw(st.sampled_from(["graph", "complemented", "zero sum", "constrained", "cardinality"]))
            if family == "graph":
                # edges among the first few vertices only, so the rest are isolated
                n = max(n, 2)
                used = draw(st.integers(2, n))
                pairs = [(i, j) for i in range(used) for j in range(i + 1, used)]
                edges = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 9)), max_size=15))
                return ref.cut_instance(Graph(n, [(i, j, float(w)) for (i, j), w in edges]))
            if family == "complemented":
                return BmpInstance(ref.with_complement(n, terms))
            if family == "zero sum" and terms:
                terms.append((-sum(a for a, _ in terms), terms[-1][1]))
            objective = MultilinearFunction(n, terms)
            if family == "constrained":
                return BmpInstance(objective, [MultilinearFunction(n, draw(st.lists(st.tuples(
                    st.integers(-3, 3).map(float), support), max_size=6)))])
            if family == "cardinality":
                return BmpInstance(objective, cardinality=draw(st.integers(0, n)))
            return BmpInstance(objective)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(cases())
        def same(inst):
            want = full_cube_primal(inst)
            if want == -math.inf:
                with pytest.raises(ModelError, match="no feasible binary point"):
                    brute_force_primal(inst)
            else:
                got = brute_force_primal(inst)
                assert got == want and f"{got:.12g}" == f"{want:.12g}"  # the .sol text, so no -0

        same()

    def test_isolated_vertices_and_symmetry(self, monkeypatch):
        # 5 of the 8 vertices hold an edge; the cut function's symmetry fixes one more
        graph = Graph(8, [(1, 4, 2.0), (4, 6, 3.0), (2, 6, 1.0), (1, 7, 5.0)])
        self.check(ref.cut_instance(graph), monkeypatch, 4)

    def test_symmetric_but_not_a_cut(self, monkeypatch):
        # g(x) + g(1 - x) for a g of degree 4: symmetric, of degree 4, and every variable held
        g = [(4.0, {0, 1, 2, 3}), (-3.0, {1, 3}), (2.0, {2, 4})]
        self.check(BmpInstance(ref.with_complement(5, g)), monkeypatch, 4)

    @pytest.mark.parametrize("terms, want", [
        ([(1.0, {0}), (-1.0, {1})], 1.0),  # x0 - x1
        ([(1.0, {0, 1}), (-1.0, {0})], 0.0),  # x0 x1 - x0
    ], ids=["x0-x1", "x0x1-x0"])
    def test_asymmetric_with_zero_sum(self, monkeypatch, terms, want):
        inst = BmpInstance(MultilinearFunction(2, terms))
        assert brute_force_primal(inst) == want
        self.check(inst, monkeypatch, 2)

    def test_zero_and_single_variable(self, monkeypatch):
        self.check(BmpInstance(MultilinearFunction(5, [])), monkeypatch, 0)
        self.check(BmpInstance(MultilinearFunction(1, [])), monkeypatch, 0)
        self.check(BmpInstance(MultilinearFunction(1, [(3.0, {0})])), monkeypatch, 1)
        self.check(BmpInstance(MultilinearFunction(1, [(-3.0, {0})])), monkeypatch, 1)

    def test_constraints_and_cardinality_keep_the_whole_cube(self, monkeypatch):
        cut = cut_polynomial(Graph(6, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)]))  # vertices 3-5 isolated
        self.check(BmpInstance(cut, cardinality=1), monkeypatch, 6)
        self.check(BmpInstance(cut, [MultilinearFunction(6, [(1.0, {3}), (-1.0, {0})])]), monkeypatch, 6)

    def test_autocorr_keeps_its_own_basis(self, monkeypatch):
        self.check(BmpInstance(autocorr_polynomial(12, 2, 0.2, seed=1000)), monkeypatch, 12)


class TestRootLoop:
    def test_none_mode_closes_nothing(self):
        model, targets, lift = k3_setup()
        rep = root_loop(model, targets, lift, RunConfig(mode="none"), primal=2.0)
        assert rep.d1 == pytest.approx(3.0, abs=1e-9)
        assert rep.d2 == pytest.approx(3.0, abs=1e-9)
        assert rep.closed == 0.0
        assert rep.cuts == 0

    def test_submodular_mode_closes_gap(self):
        model, targets, lift = k3_setup()
        rep = root_loop(
            model, targets, lift,
            RunConfig(mode="submodular", validate_cuts="on"), primal=2.0,
        )
        assert rep.cuts >= 1
        assert rep.closed == pytest.approx(1.0, abs=1e-6)
        assert rep.d2 == pytest.approx(2.0, abs=1e-6)

    def test_split_mode_closes_gap(self):
        model, targets, lift = k3_setup()
        rep = root_loop(
            model, targets, lift,
            RunConfig(mode="split", validate_cuts="on"), primal=2.0,
        )
        assert rep.cuts >= 1
        assert rep.closed > 0.0

    def test_both_mode_stacks_cuts(self):
        model, targets, lift = k3_setup()
        rep = root_loop(
            model, targets, lift,
            RunConfig(mode="both", validate_cuts="on"), primal=2.0,
        )
        assert rep.cuts >= 2

    def test_integral_optimum_stops_immediately(self):
        poly = MultilinearFunction(3, [(3.0, {0, 1}), (-2.0, {0, 1, 2})])
        model, targets, lift = build_model(BmpInstance(poly))
        rep = root_loop(model, targets, lift, RunConfig(mode="submodular"), primal=3.0)
        assert rep.rounds == 0
        assert rep.cuts == 0
        assert rep.closed == 0.0

    def test_bounds_monotone_and_gap_in_range(self):
        inst = ref.cut_instance(pw_graph(8, seed=11))
        model, targets, lift = build_model(inst)
        p = brute_force_primal(inst)
        for mode in ("split", "submodular", "ss", "both"):
            rep = root_loop(
                model, targets, lift,
                RunConfig(mode=mode, validate_cuts="on"), primal=p,
            )
            assert not rep.failed
            assert rep.d2 <= rep.d1 + 1e-9
            assert -1e-9 <= rep.closed <= 1.0 + 1e-9

    def test_graph_file_and_its_polynomial_file_agree(self, tmp_path):
        (mc,) = generate_instances("g05", 8, seed=4, out_dir=tmp_path)
        pol = tmp_path / "cut.pol"
        write_polynomial(cut_polynomial(read_graph(mc)), pol)
        key = lambda r: (r.d1, r.d2, r.p, r.closed, r.cuts)
        for mode in ("none", "split", "submodular", "ss", "both"):
            cfg = RunConfig(mode=mode, validate_cuts="on")
            a, b = run_instance(mc, cfg), run_instance(pol, cfg)
            assert key(a) == key(b)
            if mode != "none":
                assert a.cuts >= 1

    @pytest.mark.parametrize("mode", ["ss", "both"])
    def test_positive_linear_terms_give_no_candidate(self, caplog, mode):
        # no negative term: f1 holds only the linear terms and f2 the negated product
        poly = MultilinearFunction(2, [(1.0, {0}), (1.0, {1}), (3.0, {0, 1})])
        model, targets, lift = build_model(BmpInstance(poly, cardinality=1))
        assert targets[0].f1.terms == [(1.0, frozenset({0})), (1.0, frozenset({1}))]
        assert targets[0].f2.terms == [(-3.0, frozenset({0, 1}))]
        x_bar = simplex.solve(model).x[lift.x_cols]
        # the LP bound 2.5 is already the concave envelope of f at x_bar, so no set
        # can cut the target and it gives no candidate; split cuts still come
        split = split_selector(x_bar)
        kinds = [payload.kind for _, payload in harness._candidates(mode, targets, x_bar, split)]
        assert kinds == (["split"] if mode == "both" else [])
        with caplog.at_level(logging.INFO, logger="subcut.cuts"):
            rep = root_loop(model, targets, lift, RunConfig(mode=mode, validate_cuts="on"), primal=1.0)
        kinds = {r.getMessage().split()[1] for r in caplog.records if r.getMessage().startswith("CUT ")}
        assert rep.d1 == pytest.approx(2.5, abs=1e-9)
        assert kinds == ({"kind=split"} if mode == "both" else set())
        if mode == "ss":
            assert rep.cuts == rep.skipped == 0

    def test_deterministic(self, tmp_path):
        (path,) = generate_instances("g05", 8, seed=2, out_dir=tmp_path)
        cfg = RunConfig(mode="submodular")
        a = run_instance(path, cfg)
        b = run_instance(path, cfg)
        key = lambda r: (r.d1, r.d2, r.p, r.closed, r.cuts, r.rounds, r.skipped)
        assert key(a) == key(b)

    def test_violated_deferred_rows_are_appended(self, monkeypatch):
        model, targets, lift = k3_setup()
        coef = np.zeros(lift.ncols)
        coef[lift.y_cols[frozenset({0, 1})]] = 1.0
        coef[lift.x_cols] = -1.0  # y01 >= x0 + x1 + x2 - 1/2: y01 = 1 above x = (1/2, 1/2, 1/2)
        cut = IntersectionCut(coef=coef, rhs=-0.5, kind="split", efficacy=1.0)
        monkeypatch.setattr(harness, "intersection_cut", lambda corner, free_set: cut)
        solved = []
        solve = simplex.solve

        def recording_solve(model, warm=None):
            solved.append(model)
            return solve(model, warm=warm)

        monkeypatch.setattr(simplex, "solve", recording_solve)
        rep = root_loop(model, targets, lift, RunConfig(mode="split", validate_cuts="off", rounds=1))
        monkeypatch.undo()
        assert [m.nrows for m in solved] == [4, 5, 7]  # lean LP, + the cut, + y01 <= x0 and y01 <= x1
        assert np.array_equal(solved[-1].rows[5:], lift.deferred.rows[[0, 1]])
        assert rep.d1 == pytest.approx(3.0, abs=1e-9) and not rep.failed
        full = simplex.solve(ref.full_lp(model, lift).with_extra_rows([coef], [">="], [-0.5]))
        assert full.objective == pytest.approx(1.0, abs=1e-9)
        assert rep.d2 == pytest.approx(full.objective, abs=1e-9)

    def test_an_equality_deferred_row_is_rejected(self):
        # a cardinality row is the model's only = row, and its last
        model, targets, lift = build_model(BmpInstance(k3_instance().objective, cardinality=2))
        assert model.row_senses[-1] == "=" and model.row_senses.count("=") == 1
        lift.deferred = lift.deferred.with_extra_rows(model.rows[-1:], ["="], model.rhs[-1:])
        with pytest.raises(ValueError, match="deferred rows"):
            root_loop(model, targets, lift, RunConfig(mode="split"))

    def test_infeasible_model_sets_failure_flag(self):
        model = LpModel(
            sense="max",
            objective=[0.0, 0.0, 1.0],
            rows=[[1.0, 1.0, 0.0]],
            row_senses=[">="],
            rhs=[3.0],
            lower=[0.0, 0.0, 0.0],
            upper=[1.0, 1.0, 1.0],
        )
        lift = LiftMap(n=2, x_cols=np.arange(2), t_col=2, y_cols={}, ncols=3)
        targets = [SSFunction(cut_polynomial(Graph(2, [(0, 1, 1.0)])), MultilinearFunction(2, []), 1)]
        rep = root_loop(model, targets, lift, RunConfig(mode="submodular"))
        assert rep.failed
        assert math.isnan(rep.d1)
        assert math.isnan(rep.closed)

    def test_failed_warm_resolve_keeps_the_round(self, monkeypatch):
        model, targets, lift = k3_setup()
        solve = simplex.solve

        def failing_warm_solve(model, warm=None):
            if warm is not None:
                raise NumericError("warm re-solve failed")
            return solve(model)

        monkeypatch.setattr(simplex, "solve", failing_warm_solve)
        rep = root_loop(model, targets, lift, RunConfig(mode="split"), primal=2.0)
        assert rep.failed
        assert rep.rounds == 1 and rep.cuts == 1 and rep.skipped == 0
        assert rep.d1 == pytest.approx(3.0, abs=1e-9)
        assert rep.d2 == rep.d1
        assert rep.closed == 0.0

    def test_none_builds_no_corner_and_counts_no_round(self, monkeypatch):
        model, targets, lift = k3_setup()
        corners = []
        corner = simplex.corner
        monkeypatch.setattr(simplex, "corner", lambda sol: corners.append(sol) or corner(sol))
        rep = root_loop(model, targets, lift, RunConfig(mode="none"), primal=2.0)
        assert corners == []
        assert rep.rounds == 0 and rep.cuts == 0 and rep.skipped == 0 and rep.sep_time_ms == 0.0
        assert rep.d1 == pytest.approx(3.0, abs=1e-9) and rep.d2 == rep.d1 and rep.closed == 0.0
        # the other modes still build one corner per round
        rep = root_loop(model, targets, lift, RunConfig(mode="split", rounds=1), primal=2.0)
        assert len(corners) == rep.rounds == 1

    @pytest.mark.parametrize("split_emits, separated, skipped", [
        (False, ["split", "env"], 1),  # a declined candidate does not use up the cap
        (True, ["split"], 0),  # the emitted split cut fills it
    ], ids=["split_declined", "split_emitted"])
    def test_cut_cap_counts_emitted_cuts(self, monkeypatch, split_emits, separated, skipped):
        model, targets, lift = k3_setup()
        calls = []
        separate = harness.intersection_cut

        def recording_cut(corner, free_set):
            calls.append(free_set.kind)
            if free_set.kind == "split" and not split_emits:
                return None
            return separate(corner, free_set)

        monkeypatch.setattr(harness, "intersection_cut", recording_cut)
        config = RunConfig(mode="both", rounds=1, max_cuts_per_round=1)
        rep = root_loop(model, targets, lift, config, primal=2.0)
        assert calls == separated
        assert rep.cuts == 1 and rep.skipped == skipped and rep.rounds == 1

    def test_bound_below_the_optimum_raises(self, monkeypatch):
        model, targets, lift = k3_setup()

        def invalid_cut(corner, free_set):
            coef = np.zeros(lift.ncols)
            coef[lift.t_col] = -1.0  # t <= 1, below the max cut value 2
            return IntersectionCut(coef=coef, rhs=-1.0, kind="split", efficacy=1.0)

        monkeypatch.setattr(harness, "intersection_cut", invalid_cut)
        with pytest.raises(NumericError, match=r"leaves \[p, previous bound\]"):
            root_loop(model, targets, lift, RunConfig(mode="split", validate_cuts="off"), primal=2.0)
        # without a known optimum the same cut only lowers the bound
        rep = root_loop(model, targets, lift, RunConfig(mode="split", validate_cuts="off", rounds=1))
        assert rep.d2 == pytest.approx(1.0, abs=1e-9) and not rep.failed

    def test_invalid_cut_named_before_the_bound_guard(self, monkeypatch):
        model, targets, lift = k3_setup()

        def invalid_cut(corner, free_set):
            # t <= 1 + x_0 + x_1 is broken only at x = (0, 0, 1), whose cut value is 2
            coef = np.zeros(lift.ncols)
            coef[lift.x_cols[:2]] = 1.0
            coef[lift.t_col] = -1.0
            return IntersectionCut(coef=coef, rhs=-1.0, kind="split", efficacy=1.0)

        monkeypatch.setattr(harness, "intersection_cut", invalid_cut)
        with pytest.raises(NumericError) as info:
            root_loop(model, targets, lift, RunConfig(mode="split", validate_cuts="on"),
                      instance="k3", primal=2.0)
        message = str(info.value)
        assert message.startswith("split cut failed brute-force validation on 'k3': ")
        assert message.endswith("residual coef.z - rhs = -1 at x = [0, 0, 1] (bitmask 4)")

    @pytest.mark.parametrize("rise, raises", [(1e-6, True), (1e-8, False)])
    def test_bound_rising_across_a_round_raises(self, monkeypatch, rise, raises):
        model, targets, lift = k3_setup()
        solve = simplex.solve

        def loosening_solve(model, warm=None):
            sol = solve(model, warm=warm)
            if warm is not None:  # report a re-solve bound above the previous one
                sol.objective = warm.objective + rise * (1.0 + abs(warm.objective))
            return sol

        monkeypatch.setattr(simplex, "solve", loosening_solve)
        config = RunConfig(mode="split", rounds=1)
        if raises:
            with pytest.raises(NumericError, match=r"leaves \[p, previous bound\]"):
                root_loop(model, targets, lift, config)
        else:
            assert root_loop(model, targets, lift, config).d2 > 3.0

    def test_primal_override(self):
        model, targets, lift = k3_setup()
        rep = root_loop(model, targets, lift, RunConfig(mode="none"), primal=1.23)
        assert rep.p == 1.23

    def test_primal_above_the_first_bound_raises(self):
        model, targets, lift = k3_setup()
        with pytest.raises(ModelError, match=r"p = 3.000001 of 'k3' exceeds the first LP bound d1 = 3$"):
            root_loop(model, targets, lift, RunConfig(mode="split"), instance="k3", primal=3.000001)
        # within the bound guards' slack, 1e-7 * (1 + d1), of d1 = 3
        rep = root_loop(model, targets, lift, RunConfig(mode="none"), primal=3.0 + 3e-7)
        assert rep.closed == 0.0 and not rep.failed

    def test_primal_below_a_feasible_binary_point_raises(self):
        # the LP optimum is binary in x, (1, 1, 0) of value 3; p = 3 is right, and
        # the guard on the first LP optimum, rounded, catches p = 2.9999 before the loop's own
        poly = MultilinearFunction(3, [(3.0, {0, 1}), (-2.0, {0, 1, 2})])
        model, targets, lift = build_model(BmpInstance(poly))
        with pytest.raises(ModelError, match=r"p = 2.9999 of 'tri' is below the value 3 of the rounded first"
                                             r" LP optimum x = \[1, 1, 0\]$"):
            root_loop(model, targets, lift, RunConfig(mode="none"), instance="tri", primal=2.9999)
        # within the bound guards' slack of the point's value
        assert not root_loop(model, targets, lift, RunConfig(mode="none"), primal=3.0 - 3e-7).failed
        # an infeasible binary point proves nothing about p
        capped = BmpInstance(poly, constraints=[MultilinearFunction(3, [(-1.0, {0, 1})])])
        assert harness._check_binary_point(capped, np.array([1.0, 1.0, 0.0]), 2.0, "tri", "point") is None
        sized = BmpInstance(poly, cardinality=1)
        assert harness._check_binary_point(sized, np.array([1.0, 1.0, 0.0]), 2.0, "tri", "point") is None

    def test_requires_targets(self):
        model, _, lift = k3_setup()
        with pytest.raises(ModelError):
            root_loop(model, [], lift, RunConfig(mode="none"))

    def test_rounds_zero(self):
        model, targets, lift = k3_setup()
        rep = root_loop(model, targets, lift, RunConfig(mode="submodular", rounds=0), primal=2.0)
        assert rep.cuts == 0 and rep.d2 == rep.d1


class TestBenchmarkAndCsv:
    def test_run_benchmark_and_csv(self, tmp_path):
        paths = generate_instances("g05", 6, count=2, seed=0, out_dir=tmp_path)
        reports = run_benchmark(paths, RunConfig(rounds=3), modes=["none", "submodular"])
        assert len(reports) == 4
        assert [r.mode for r in reports] == ["none", "submodular"] * 2
        out = tmp_path / "report.csv"
        write_report_csv(reports, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == "instance,mode,d1,d2,p,closed,cuts,sep_time_ms,total_time_ms"
        assert len(lines) == 5
        for line in lines[1:]:
            assert len(line.split(",")) == 9

    def test_csv_row_shape(self):
        rep = fake_report("split", 0.5)
        cells = rep.csv_row().split(",")
        assert cells[0] == "fake" and cells[1] == "split"
        assert float(cells[2]) == 3.0 and int(cells[6]) == 1


class TestCli:
    def write_k3(self, tmp_path):
        path = tmp_path / "k3.mc"
        write_graph(k3_graph(), path)
        return path

    def test_gen_command(self, tmp_path, capsys):
        rc = cli.main(["gen", "g05", "-n", "6", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out.strip().split("\n")
        assert len(printed) == 1 and printed[0].endswith(".mc")
        assert (tmp_path / "g05_n6_s3.mc").exists()
        assert (tmp_path / "g05_n6_s3.sol").exists()

    @pytest.mark.parametrize("args, phrase", [
        (["gen", "g05", "-n", "1"], "n >= 2"),
        (["gen", "g05", "-n", "6", "--count", "-1"], "count must be >= 1"),
        (["gen", "g05", "-n", "6", "--density", "-0.5"], "density must be in [0, 1]"),
        (["gen", "autocorr", "-n", "6", "--max-lag", "0"], "max_lag must be >= 1"),
        (["root", "K3", "--rounds", "-1"], "rounds must be >= 0"),
        (["root", "K3", "--max-cuts", "0"], "max_cuts_per_round must be >= 1"),
        (["gen", "g05", "-n", "2049", "--density", "0.0005"], "instance file limited to n <= 2048, got n = 2049"),
    ])
    def test_out_of_range_setting(self, tmp_path, capsys, args, phrase):
        path = self.write_k3(tmp_path)
        args = [str(path) if a == "K3" else a for a in args]
        if args[0] == "gen":
            args += ["--out", str(tmp_path / "gen")]
        rc = cli.main(args)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().split("\n")
        assert line.startswith("error: ") and phrase in line
        assert not (tmp_path / "gen").exists()

    def test_root_command(self, tmp_path, capsys):
        path = self.write_k3(tmp_path)
        rc = cli.main(["root", str(path), "--cuts", "submodular", "--validate", "on"])
        assert rc == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == CSV_HEADER
        cells = out[1].split(",")
        assert cells[0] == "k3" and cells[1] == "submodular"
        assert float(cells[2]) == pytest.approx(3.0, abs=1e-6)
        assert float(cells[4]) == pytest.approx(2.0, abs=1e-9)

    def test_root_report_file(self, tmp_path, capsys):
        path = self.write_k3(tmp_path)
        report = tmp_path / "row.csv"
        rc = cli.main(["root", str(path), "--cuts", "none", "--report", str(report)])
        assert rc == 0
        assert report.read_text().startswith(CSV_HEADER)

    def test_verify_graph(self, tmp_path, capsys):
        path = self.write_k3(tmp_path)
        rc = cli.main(["verify", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS normalized(f(0)=0)",
            "PASS submodular",
            "PASS extension_identity",
            "PASS bound_dominates_optimum",
        ]

    def test_verify_poly(self, tmp_path, capsys):
        (path,) = generate_instances("autocorr", 5, seed=2, out_dir=tmp_path)
        rc = cli.main(["verify", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS objective_parts_submodular",
            "PASS objective_decomposition_identity",
            "PASS bound_dominates_optimum",
            "PASS sidecar_matches_optimum",
        ]

    @pytest.mark.parametrize("kind, n, density, lines", [
        ("pw", 12, None, ["PASS normalized(f(0)=0)", "PASS submodular", "PASS extension_identity",
                          "PASS bound_dominates_optimum", "PASS sidecar_matches_optimum"]),
        ("g05", 16, None, ["PASS normalized(f(0)=0)", "PASS submodular", "SKIP extension_identity (n > 14)",
                           "PASS bound_dominates_optimum", "PASS sidecar_matches_optimum"]),
        ("autocorr", 14, 0.3, ["PASS objective_parts_submodular", "PASS objective_decomposition_identity",
                               "PASS bound_dominates_optimum", "PASS sidecar_matches_optimum"]),
        ("autocorr", 21, 0.3, ["PASS objective_parts_submodular",
                               "PASS objective_decomposition_identity", "SKIP bound_dominates_optimum (n > 20)"]),
    ], ids=["pw-n12", "g05-n16", "autocorr-n14", "autocorr-n21"])
    def test_verify_lines_past_limits(self, tmp_path, capsys, kind, n, density, lines):
        (path,) = generate_instances(kind, n, seed=1, out_dir=tmp_path, density=density)
        capsys.readouterr()
        rc = cli.main(["verify", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.parametrize("sol, rc, line", [
        ("12\n", 0, "PASS sidecar_matches_optimum"),
        ("5\n", 1, "FAIL sidecar_matches_optimum g05_n8_s3.sol holds 5, brute force gives 12"),
        (None, 0, "PASS bound_dominates_optimum"),
    ], ids=["right", "wrong", "missing"])
    def test_verify_checks_the_sidecar(self, tmp_path, capsys, sol, rc, line):
        # g05 n=8 of seed 3 has optimum 12; a wrong .sol would make root report a wrong closed gap
        (path,) = generate_instances("g05", 8, seed=3, out_dir=tmp_path)
        assert path.with_suffix(".sol").read_text() == "12\n"
        if sol is None:
            path.with_suffix(".sol").unlink()
        else:
            path.with_suffix(".sol").write_text(sol)
        capsys.readouterr()
        assert cli.main(["verify", str(path)]) == rc
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == line
        assert ("sidecar_matches_optimum" in "".join(out)) == (sol is not None)

    def test_verify_skips_the_sidecar_past_brute_force(self, tmp_path, capsys):
        (path,) = generate_instances("autocorr", 21, seed=1, out_dir=tmp_path, density=0.3)
        path.with_suffix(".sol").write_text("5\n")
        capsys.readouterr()
        assert cli.main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "SKIP bound_dominates_optimum (n > 20)", "SKIP sidecar_matches_optimum (n > 20)"]

    def test_verify_fails_the_bound_on_an_lp_failure(self, tmp_path, capsys, monkeypatch):
        path = self.write_k3(tmp_path)

        def failing_solve(model, warm=None):
            raise NumericError("singular basis")

        monkeypatch.setattr(simplex, "solve", failing_solve)
        rc = cli.main(["verify", str(path)])
        assert rc == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL bound_dominates_optimum LP failure"

    def test_verify_fails_the_bound_on_roots_guard(self, tmp_path, capsys, monkeypatch):
        # an optimum above d1 trips root's own guard, which verify reports as a FAIL line
        path = self.write_k3(tmp_path)
        monkeypatch.setattr(harness, "brute_force_primal", lambda instance: 4.0)
        rc = cli.main(["verify", str(path)])
        assert rc == 1
        line = capsys.readouterr().out.splitlines()[-1]
        assert line == ("FAIL bound_dominates_optimum reference optimum p = 4 of 'k3'"
                        " exceeds the first LP bound d1 = 3")

    def test_verify_without_a_feasible_point(self, tmp_path, capsys, monkeypatch):
        # brute force finds no feasible binary point: an error, not a FAIL line
        path = self.write_k3(tmp_path)
        # -x_0 >= 0 and x_0 + x_1 + x_2 = 3 exclude each other
        infeasible = BmpInstance(k3_instance().objective, [MultilinearFunction(3, [(-1.0, {0})])], 3)
        monkeypatch.setattr(harness, "load_instance", lambda p: infeasible)
        rc = cli.main(["verify", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: no feasible binary point"
        assert "bound_dominates_optimum" not in captured.out

    def test_bench_command(self, tmp_path, capsys):
        generate_instances("g05", 6, count=2, seed=0, out_dir=tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rounds": 2, "modes": ["none", "split"]}))
        report = tmp_path / "bench.csv"
        rc = cli.main(["bench", str(tmp_path), "--config", str(cfg), "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert CSV_HEADER in out
        assert "mode,closed,time_s,cuts,runs" in out
        lines = report.read_text().strip().split("\n")
        assert len(lines) == 5  # header + 2 instances x 2 modes

    @pytest.mark.parametrize("config", [
        {"rounds": 2, "cleverness": 11},
        {"rounds": 2, "efficacy_min": 1e-3},  # a separation constant, not a run setting
        {"modes": ["none", "split", "everything"]},
        {"modes": "none"},
        {"rounds": 2.5},
        {"max_cuts_per_round": 1.5},
        {"rounds": True},
        {"rounds": "3"},
    ])
    def test_bench_bad_config(self, tmp_path, capsys, config):
        generate_instances("g05", 6, count=1, seed=0, out_dir=tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = cli.main(["bench", str(tmp_path), "--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the first run
        (line,) = captured.err.strip().split("\n")
        assert line.startswith("error: bad config")
        if set(config) - {"rounds", "max_cuts_per_round", "modes"}:  # an unknown key
            assert "accepted keys: mode, rounds, max_cuts_per_round, validate_cuts, modes" in line
        elif "modes" not in config:
            (key,) = config
            assert f"{key} must be an integer, got {config[key]!r}" in line

    def test_bench_config_with_mode_and_modes(self, tmp_path, capsys):
        generate_instances("g05", 6, count=1, seed=0, out_dir=tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "split", "modes": ["none"]}))
        rc = cli.main(["bench", str(tmp_path), "--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().split("\n")
        assert line.startswith("error: bad config") and "set mode or modes, not both" in line

    @pytest.mark.parametrize("failing, summary_runs", [
        (1, {"none": "1", "split": "2"}),  # the first run's first solve only
        (4, {}),  # every run's first solve
    ], ids=["one_failed", "all_failed"])
    def test_bench_failed_runs(self, tmp_path, capsys, monkeypatch, failing, summary_runs):
        generate_instances("g05", 6, count=2, seed=0, out_dir=tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rounds": 2, "modes": ["none", "split"]}))
        solve, cold = simplex.solve, []

        def failing_solve(model, warm=None):
            if warm is None:
                cold.append(model)
                if len(cold) <= failing:
                    raise NumericError("singular basis")
            return solve(model, warm=warm)

        monkeypatch.setattr(simplex, "solve", failing_solve)
        rc = cli.main(["bench", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:5]]
        assert [row[2] == "nan" for row in rows] == [k < failing for k in range(4)]
        assert lines[5] == "mode,closed,time_s,cuts,runs"
        assert {line.split(",")[0]: line.split(",")[-1] for line in lines[6:]} == summary_runs
        (warning,) = captured.err.strip().split("\n")
        assert warning == f"warning: LP failure in {failing} of 4 runs, left out of the summary"

    def test_bench_empty_directory(self, tmp_path, capsys):
        rc = cli.main(["bench", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("mode", ["split", "submodular", "both"])
    def test_sidecar_below_a_binary_lp_optimum(self, tmp_path, capsys, mode):
        # every mode's loop ends at an LP optimum binary in x with d2 = 8, the
        # optimum: a sidecar of 5 or 7 is wrong data, not a closed gap.  The
        # first LP optimum, rounded, is worth 6, so it catches 5 before any
        # round, and the binary optimum the loop ends at catches 7
        rc = cli.main(["gen", "g05", "-n", "6", "--seed", "2", "--out", str(tmp_path)])
        assert rc == 0 and (tmp_path / "g05_n6_s2.sol").read_text() == "8\n"
        capsys.readouterr()
        path = tmp_path / "g05_n6_s2.mc"
        assert cli.main(["root", str(path), "--cuts", mode]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[3:6] == ["8", "8", "1"]  # d2, p, closed
        for sidecar, point in [("5", "6 of the rounded first LP optimum x = [1, 0, 0, 1, 1, 1]"),
                               ("7", "8 of the binary LP optimum x = [1, 0, 0, 1, 0, 1]")]:
            path.with_suffix(".sol").write_text(sidecar + "\n")
            rc = cli.main(["root", str(path), "--cuts", mode])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.strip().split("\n")
            assert line == f"error: reference optimum p = {sidecar} of 'g05_n6_s2' is below the value {point}"

    def test_capacity_exit_code(self, tmp_path, capsys):
        # a 21-variable graph with no sidecar cannot be brute forced
        path = tmp_path / "big.mc"
        write_graph(Graph(21, [(0, 1, 1.0)]), path)
        rc = cli.main(["root", str(path)])
        assert rc == 2

    def test_root_validates_past_the_auto_limit(self, tmp_path, capsys):
        # the README's --validate on example at n = 15, with fewer rounds
        rc = cli.main(["gen", "autocorr", "-n", "15", "--seed", "0", "--density", "0.35",
                       "--max-lag", "3", "--out", str(tmp_path)])
        assert rc == 0
        report = tmp_path / "out.csv"
        rc = cli.main(["root", str(tmp_path / "autocorr_n15_s0.pol"), "--cuts", "both", "--validate", "on",
                       "--rounds", "2", "--report", str(report)])
        assert rc == 0
        cells = report.read_text().splitlines()[1].split(",")
        assert cells[:2] == ["autocorr_n15_s0", "both"] and int(cells[6]) > 0

    def test_root_validation_capacity(self, tmp_path, capsys):
        path = tmp_path / "big.mc"
        write_graph(Graph(21, [(0, 1, 1.0), (1, 2, 1.0)]), path)
        rc = cli.main(["root", str(path), "--primal", "2", "--validate", "on"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().split("\n")
        assert line == "error: brute force limited to n <= 20, got n = 21"

    @pytest.mark.parametrize("command", ["root", "verify", "bench"])
    @pytest.mark.parametrize("name, text", [
        ("short.mc", "3 2\n1 2 1.0\n"),  # fewer edge lines than the header says
        ("words.mc", "three 2\n1 2 1.0\n2 3 1.0\n"),  # a header that is not a number
        ("words.pol", "2 1\nhalf 1 2\n"),  # a coefficient that is not a number
        ("nan.mc", "2 1\n1 2 nan\n"),  # a weight that is not finite
        ("empty.mc", "0 0\n"),  # no vertices
        ("empty.pol", "0 0\n"),  # no variables
        ("neg.mc", "2 1\n1 2 -1.0\n"),  # a negative weight
        ("loop.mc", "2 1\n2 2 1.0\n"),  # a self-loop, named 1-based
        ("blank.mc", "# no header\n\n"),  # nothing but a comment and a blank line
        ("header.mc", "3\n"),  # a header of one token
        ("header.pol", "2 1 1\n1.0 1\n"),  # a header of three tokens
        ("count.mc", "2 1.5\n1 2 1.0\n"),  # a count that is not an integer
        ("count.pol", "2 one\n1.0 1\n"),  # a count that is a word
        ("long.pol", "2 1\n1.0 1\n1.0 2\n"),  # more term lines than the header says
        ("arity.mc", "2 1\n1 2\n"),  # an edge line without its weight
        ("arity.pol", "2 1\n1.0\n"),  # a term line without an index
        ("range.mc", "2 1\n1 3 1.0\n"),  # an endpoint past n
        ("range.pol", "2 1\n1.0 0 1\n"),  # an index below 1
        ("index.mc", "2 1\n1 2.5 1.0\n"),  # an endpoint that is not an integer
        ("inf.pol", "2 1\n-inf 1 2\n"),  # a coefficient that is not finite
        ("huge.pol", "2 1\n1e400 1 2\n"),  # a coefficient that overflows to inf
    ])
    def test_malformed_instance(self, tmp_path, capsys, command, name, text):
        path = tmp_path / name
        path.write_text(text)
        rc = cli.main([command, str(tmp_path if command == "bench" else path)])
        assert rc == 2
        captured = capsys.readouterr()
        (line,) = captured.err.strip().split("\n")
        assert line.startswith("error: ") and str(path) in line

    @pytest.mark.parametrize("command", ["root", "verify", "bench"])
    @pytest.mark.parametrize("name, header", [
        ("digits.mc", "1" + "0" * 400),  # past any index-sized integer
        ("billion.mc", "1000000000"),  # gigabytes of set-up arrays
        ("billion.pol", "1000000000"),
    ])
    def test_instance_size_capacity(self, tmp_path, capsys, command, name, header):
        path = tmp_path / name
        path.write_text(f"{header} 1\n" + ("1 2 1.0\n" if name.endswith(".mc") else "1.0 1 2\n"))
        rc = cli.main([command, str(tmp_path if command == "bench" else path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().split("\n")
        assert line == f"error: {path}: instance file limited to n <= {CAPACITY['instance file']}, got n = {header}"

    def test_verify_has_checks_for_every_instance_suffix(self):
        assert list(cli.VERIFIERS) == list(READERS)

    @pytest.mark.parametrize("name, text, sidecar", [
        ("zz_short.mc", "3 2\n1 2 1.0\n", False),  # fewer edge lines than the header says
        ("zz_neg.mc", "2 1\n1 2 -1.0\n", True),  # a negative weight; the sidecar spares the brute force
    ], ids=["short", "negative-weight"])
    def test_bench_malformed_instance_fails_before_any_run(self, tmp_path, capsys, caplog, name, text, sidecar):
        generate_instances("g05", 6, count=2, seed=0, out_dir=tmp_path)
        bad = tmp_path / name  # sorts after the good instances
        bad.write_text(text)
        if sidecar:
            bad.with_suffix(".sol").write_text("1\n")
        report = tmp_path / "bench.csv"
        with caplog.at_level(logging.INFO, logger="subcut.harness"):
            rc = cli.main(["bench", str(tmp_path), "--report", str(report)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().split("\n")
        assert line.startswith("error: ") and str(bad) in line
        assert not [r for r in caplog.records if r.getMessage().startswith("REPORT ")]
        assert not report.exists()

    @pytest.mark.parametrize("command", ["root", "verify"])
    def test_missing_instance(self, tmp_path, capsys, command):
        path = tmp_path / "absent.mc"
        rc = cli.main([command, str(path)])
        assert rc == 2
        (line,) = capsys.readouterr().err.strip().split("\n")
        assert line.startswith("error: ") and str(path) in line

    def test_root_primal_override(self, tmp_path, capsys):
        # the same graph runs when --primal spares the brute force
        path = tmp_path / "big.mc"
        write_graph(Graph(21, [(0, 1, 1.0)]), path)
        rc = cli.main(["root", str(path), "--primal", "1"])
        assert rc == 0
        cells = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert cells[0] == "big" and float(cells[4]) == 1.0

    @pytest.mark.parametrize("command", ["root", "bench"])
    @pytest.mark.parametrize("token", ["abc", "nan", "inf"])
    def test_bad_sidecar(self, tmp_path, capsys, command, token):
        (path,) = generate_instances("g05", 8, seed=0, out_dir=tmp_path)
        side = path.with_suffix(".sol")
        side.write_text(f"{token}\n")
        rc = cli.main([command, str(tmp_path if command == "bench" else path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().split("\n")
        assert line.startswith("error: ") and str(side) in line

    @pytest.mark.parametrize("command, cuts", [("root", "submodular"), ("root", "none"), ("bench", None)])
    def test_primal_above_the_first_bound(self, tmp_path, capsys, command, cuts):
        # d1 = 15 on this graph; a reference optimum above it is wrong data, not a loop bug
        (path,) = generate_instances("g05", 8, seed=3, out_dir=tmp_path)
        if command == "root":
            rc = cli.main(["root", str(path), "--cuts", cuts, "--primal", "1000"])
        else:
            path.with_suffix(".sol").write_text("1000\n")
            rc = cli.main(["bench", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().split("\n")
        assert line == "error: reference optimum p = 1000 of 'g05_n8_s3' exceeds the first LP bound d1 = 15"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_root_primal_not_finite(self, tmp_path, capsys, token):
        (path,) = generate_instances("g05", 8, seed=0, out_dir=tmp_path)
        rc = cli.main(["root", str(path), f"--primal={token}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().split("\n")
        assert line.startswith("error: ") and "finite number" in line

    def test_root_primal_not_a_number(self, tmp_path, capsys):
        (path,) = generate_instances("g05", 8, seed=0, out_dir=tmp_path)
        rc = cli.main(["root", str(path), "--primal", "abc"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().split("\n")
        assert line.startswith("error: primal override") and "'abc'" in line


def test_every_capacity_limit_is_read():
    """Each CAPACITY key is named, as a quoted string, by a module other than the table's own."""
    modules = [path for path in Path(subcut.__file__).parent.glob("*.py") if path.name != "errors.py"]
    text = "\n".join(path.read_text() for path in modules)
    unread = [name for name in CAPACITY if f'"{name}"' not in text and f"'{name}'" not in text]
    assert not unread


def test_every_public_name_is_used_in_the_package():
    """Each name of ``subcut.__all__`` is read by some module of the package, not only exported."""
    used = set()
    for path in Path(subcut.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert sorted(set(subcut.__all__) - used) == []


def test_every_public_name_resolves():
    missing = [name for name in subcut.__all__ if not hasattr(subcut, name)]
    assert not missing
