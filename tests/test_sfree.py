import itertools

import numpy as np
import pytest

import _reference as ref
from _covers import (
    THREE_CHAINS,
    CoverRelaxation,
    containment_witness,
    is_cover,
    is_minimal_cover,
    maximality_diagnostic,
    three_chain_relaxation,
)
from _reference import verify_free_bruteforce
from subcut.oracles import Graph, MultilinearFunction, SSFunction, cut_polynomial, envelope_eval, ss_decompose
from subcut.sfree import INTERIOR_TOL, EnvelopeEpigraph, LiftedSplit, build_reverse_linearized


@pytest.fixture
def k3_cut():
    return cut_polynomial(Graph(3, ref.K3_EDGES))


def random_poly(rng, n, terms=6):
    out = []
    for _ in range(terms):
        size = int(rng.integers(1, min(n, 4) + 1))
        support = set(rng.choice(n, size=size, replace=False).tolist())
        out.append((float(rng.integers(-5, 6)), support))
    out = [(c, s) for c, s in out if c != 0.0]
    if not out:
        out = [(1.0, {0})]
    return MultilinearFunction(n, out)


class TestBuildReverseLinearized:
    def test_zero_second_part_degenerates(self, k3_cut):
        ss = SSFunction(k3_cut, MultilinearFunction(3, []), level=1)
        sfree = build_reverse_linearized(ss, [0.5, 0.5, 0.5])
        assert isinstance(sfree, EnvelopeEpigraph)
        assert sfree.kind == "env" and sfree.level == 1
        assert sfree.gamma is None

    def test_gamma_from_reference_point(self):
        poly = MultilinearFunction(3, [(3.0, {0, 1}), (-2.0, {0, 1, 2})])
        ss = ss_decompose(poly)
        sfree = build_reverse_linearized(ss, [1.0, 1.0, 1.0])
        assert isinstance(sfree, EnvelopeEpigraph)
        assert sfree.kind == "ss"
        assert sfree.gamma.tolist() == [0.0, -3.0, 0.0]
        # pin against the independent greedy construction on f2 = -3 x0 x1
        want = ref.greedy_sigma(
            lambda x: -3.0 * x[0] * x[1], [0, 1, 2]
        )
        assert sfree.gamma.tolist() == list(want)

    def test_zero_first_part_membership(self):
        poly = MultilinearFunction(2, [(3.0, {0, 1})])
        ss = ss_decompose(poly)
        assert ss.f1.trivially_zero
        x_ref = np.array([1.0, 1.0])
        sfree = build_reverse_linearized(ss, x_ref)
        # membership of (x, t) reduces to -gamma . x <= level * t
        for t in (0.0, 1.0, -4.0):
            got = ref.margin(sfree, x_ref, t)
            want = 1.0 * t - (0.0 - float(sfree.gamma @ x_ref))
            assert got == pytest.approx(want, abs=1e-12)

    def test_gamma_shape_checked(self, k3_cut):
        with pytest.raises(ValueError):
            EnvelopeEpigraph(k3_cut, gamma=[1.0, 2.0])


class TestBlockForm:
    """value_and_subgradient on a (k, n) block equals the point results byte for byte."""

    SETS = {
        "env": lambda: EnvelopeEpigraph(cut_polynomial(Graph(4, [(0, 1, 2.0), (1, 2, 1.0), (0, 3, 3.0)]))),
        "ss": lambda: build_reverse_linearized(
            ss_decompose(MultilinearFunction(4, [(3.0, {0, 1}), (-2.0, {1, 2, 3}), (1.5, {2, 3})])),
            [0.3, 0.9, 0.1, 0.6],
        ),
        "split": lambda: LiftedSplit(2, 4),
        "cover": lambda: CoverRelaxation(
            cut_polynomial(Graph(4, [(0, 1, 2.0), (2, 3, 1.0)])), [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]]
        ),
    }

    @pytest.mark.parametrize("kind", sorted(SETS))
    def test_rows_match_points(self, kind):
        sfree = self.SETS[kind]()
        rng = np.random.default_rng(17)
        x = np.concatenate([
            rng.integers(-2, 4, size=(10, 4)) / 2.0,  # ties, the split's 0.5 tie included
            rng.normal(size=(10, 4)) * 2.0,
            rng.integers(0, 2, size=(6, 4)).astype(float),
        ])
        values, grads = sfree.value_and_subgradient(x)
        assert values.shape == (x.shape[0],) and grads.shape == x.shape
        for row, value, grad in zip(x, values, grads):
            want_value, want_grad = sfree.value_and_subgradient(row)
            assert float(value).hex() == float(want_value).hex()
            assert grad.tobytes() == np.asarray(want_grad).tobytes()


class TestInteriority:
    def test_strict_interior(self, k3_cut):
        margin = ref.margin(EnvelopeEpigraph(k3_cut), [0.5, 0.5, 0.5], 1.5)
        assert margin > INTERIOR_TOL
        assert margin == pytest.approx(1.5, abs=1e-12)

    def test_boundary_at_graph_point(self, k3_cut):
        margin = ref.margin(EnvelopeEpigraph(k3_cut), [1.0, 0.0, 0.0], 2.0)
        assert abs(margin) <= INTERIOR_TOL
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_exterior(self, k3_cut):
        margin = ref.margin(EnvelopeEpigraph(k3_cut), [1.0, 0.0, 0.0], 1.0)
        assert margin < -INTERIOR_TOL
        assert margin == pytest.approx(-1.0, abs=1e-12)

    def test_split_midpoint(self):
        margin = ref.margin(LiftedSplit(0, 3), [0.5, 0.2, 0.9], 7.0)
        assert margin > INTERIOR_TOL
        assert margin == pytest.approx(0.5, abs=1e-12)

    def test_split_t_is_inert(self):
        split = LiftedSplit(1, 2)
        for t in (-100.0, 0.0, 100.0):
            assert ref.margin(split, [0.0, 0.3], t) == pytest.approx(0.3, abs=1e-12)

    def test_split_index_range(self):
        with pytest.raises(ValueError):
            LiftedSplit(3, 3)


class TestCovers:
    def test_three_chain_cover_is_minimal(self):
        orders = [[2, 1, 0], [1, 0, 2], [0, 2, 1]]
        assert is_cover(3, orders)
        assert is_minimal_cover(3, orders)

    def test_all_permutations_cover_not_minimal(self):
        orders = [list(p) for p in itertools.permutations(range(3))]
        assert is_cover(3, orders)
        assert not is_minimal_cover(3, orders)

    def test_single_chain_misses_points(self):
        assert not is_cover(3, [[0, 1, 2]])

    def test_non_cover_is_not_minimal(self):
        assert not is_minimal_cover(3, [[0, 1, 2]])

    def test_chain_count_lower_bound(self):
        # 2^n points, each chain visits n+1: need at least ceil((2^n - 2)/(n - 1)) interior hits
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            full = [list(p) for p in itertools.permutations(range(n))]
            assert is_cover(n, full)
            k = max(1, (2**n - 2) // max(n - 1, 1) - 1)
            sample = [full[i] for i in rng.choice(len(full), size=k, replace=False)]
            assert not is_cover(n, sample)


class TestVerifyFree:
    def test_envelope_epigraph_free(self, k3_cut):
        assert verify_free_bruteforce(EnvelopeEpigraph(k3_cut), k3_cut)

    def test_three_chain_free(self, k3_cut):
        assert verify_free_bruteforce(three_chain_relaxation(k3_cut), k3_cut)

    def test_non_cover_not_free(self, k3_cut):
        partial = CoverRelaxation(k3_cut, [[0, 1, 2]])
        assert not verify_free_bruteforce(partial, k3_cut)

    def test_lifted_split_free_for_any_target(self, k3_cut):
        for j in range(3):
            assert verify_free_bruteforce(LiftedSplit(j, 3), k3_cut)

    def test_superlevel_target(self):
        # level 0: only sign-feasible binary points matter
        poly = MultilinearFunction(2, [(3.0, {0, 1}), (-1.0, {0})])
        ss = ss_decompose(poly, level=0)
        sfree = build_reverse_linearized(ss, [0.5, 0.5])
        assert verify_free_bruteforce(sfree, ss)

    def test_random_constructions_free(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            n = int(rng.integers(2, 7))
            poly = random_poly(rng, n)
            ss = ss_decompose(poly)
            x_ref = rng.uniform(-1, 2, size=n)
            assert verify_free_bruteforce(build_reverse_linearized(ss, x_ref), ss)
            f1 = ss.f1
            if not f1.trivially_zero:
                assert verify_free_bruteforce(EnvelopeEpigraph(f1), f1)
            assert verify_free_bruteforce(LiftedSplit(int(rng.integers(n)), n), ss)


class TestThreeChainRelaxation:
    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            three_chain_relaxation(ref.modular([1.0, 2.0]))

    def test_chain_constants_are_chains(self):
        for chain in THREE_CHAINS:
            assert chain[0] == (0, 0, 0) and chain[-1] == (1, 1, 1)
            for a, b in zip(chain, chain[1:]):
                diff = [y - x for x, y in zip(a, b)]
                assert sum(diff) == 1 and all(d in (0, 1) for d in diff)

    def test_k3_kept_facets(self, k3_cut):
        relax = three_chain_relaxation(k3_cut)
        got = {tuple(v) for v in relax.vertices}
        assert got == {(-2.0, 0.0, 2.0), (0.0, 2.0, -2.0), (2.0, -2.0, 0.0)}

    def test_contains_envelope_epigraph(self, k3_cut):
        relax = three_chain_relaxation(k3_cut)
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=3)
            relaxed, _ = relax.value_and_subgradient(x)
            full = envelope_eval(k3_cut, x).value
            assert relaxed <= full + 1e-12

    def test_witness_certifies_strictness(self, k3_cut):
        relax = three_chain_relaxation(k3_cut)
        witness = containment_witness(relax)
        assert witness is not None
        x, t = witness
        # inside the relaxation
        assert ref.margin(relax, x, t) >= -1e-6
        # strictly outside the full epigraph
        assert envelope_eval(k3_cut, x).value > t + 1e-9

    def test_maximality_diagnostic_three_chains(self, k3_cut):
        assert maximality_diagnostic(three_chain_relaxation(k3_cut))

    def test_maximality_diagnostic_full_set_fails(self, k3_cut):
        # with all 6 facets kept, no facet carries an exclusive binary point
        full = CoverRelaxation(
            k3_cut, [list(p) for p in itertools.permutations(range(3))]
        )
        assert not maximality_diagnostic(full)


class TestReverseLinearizedDominance:
    def test_supporting_linearization(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            n = int(rng.integers(2, 6))
            poly = random_poly(rng, n)
            ss = ss_decompose(poly)
            if ss.f2.trivially_zero:
                continue
            x_ref = rng.uniform(-1, 2, size=n)
            sfree = build_reverse_linearized(ss, x_ref)
            f2_vals = lambda x: ss.f2.value(np.array(x, dtype=float))
            # gamma supports the envelope of f2 from below, touching at x_ref
            for _ in range(10):
                x = rng.uniform(-2, 2, size=n)
                env2 = ref.envelope_by_enumeration(f2_vals, n, x)
                assert float(sfree.gamma @ x) <= env2 + 1e-9
            env_ref = ref.envelope_by_enumeration(f2_vals, n, x_ref)
            assert float(sfree.gamma @ x_ref) == pytest.approx(env_ref, abs=1e-9)

    def test_dominates_difference(self):
        rng = np.random.default_rng(29)
        poly = random_poly(rng, 4, terms=8)
        ss = ss_decompose(poly)
        if ss.f2.trivially_zero:
            pytest.skip("decomposition had no removed part")
        x_ref = rng.uniform(0, 1, size=4)
        sfree = build_reverse_linearized(ss, x_ref)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=4)
            lhs, _ = sfree.value_and_subgradient(x)
            diff = envelope_eval(ss.f1, x).value - envelope_eval(ss.f2, x).value
            assert lhs >= diff - 1e-9


class TestCoverRelaxationBasics:
    def test_needs_orders(self, k3_cut):
        with pytest.raises(ValueError):
            CoverRelaxation(k3_cut, [])

    def test_value_is_max_of_kept_facets(self, k3_cut):
        relax = three_chain_relaxation(k3_cut)
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=3)
            value, sub = relax.value_and_subgradient(x)
            assert value == pytest.approx(max(float(v @ x) for v in relax.vertices))
            assert value == pytest.approx(float(sub @ x), abs=1e-12)

    def test_binary_points_never_interior(self, k3_cut):
        # B-freeness seen through margins at the lifted graph points
        relax = three_chain_relaxation(k3_cut)
        for mask in range(8):
            x = np.array([(mask >> i) & 1 for i in range(3)], dtype=float)
            assert ref.margin(relax, x, k3_cut.value(x)) <= 1e-12
