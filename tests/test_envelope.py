import itertools
import math

import numpy as np
import pytest

import _reference as ref
from _reference import chain_points, chain_to_permutation, greedy_vertex, support_points
from subcut.envelope import envelope_eval
from subcut.oracles import Graph, MultilinearFunction, cut_polynomial


def all_greedy_vertices(f):
    """The package's greedy vertex of every one of the n! orders."""
    return [greedy_vertex(f, order) for order in itertools.permutations(range(f.n))]


def envelope_by_enumeration(f, x):
    """The reference envelope: max of sigma . x over all n! orders of the polynomial's terms."""
    return ref.envelope_by_enumeration(lambda bits: ref.multilinear_value(f.terms, bits), f.n, x)


@pytest.fixture
def k3_cut():
    return cut_polynomial(Graph(3, ref.K3_EDGES))


def random_cut_oracle(rng, n):
    edges = [
        (i, j, float(rng.integers(1, 7)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.6
    ]
    return cut_polynomial(Graph(n, edges))


def random_submodular_multilinear(rng, n):
    """Nonpositive coefficients on random supports of size 1..3: submodular."""
    terms = []
    for _ in range(int(rng.integers(1, 7))):
        size = int(rng.integers(1, min(n, 3) + 1))
        terms.append((-float(rng.integers(1, 6)), set(rng.choice(n, size=size, replace=False).tolist())))
    return MultilinearFunction(n, terms)


BLOCK_ORACLES = {
    "cut": random_cut_oracle,
    "multilinear": random_submodular_multilinear,
    "modular": lambda rng, n: ref.modular(rng.normal(size=n)),
}


def block_rows(rng, n, k):
    """Rows mixing ties, negative entries and 0/1 points."""
    ties = rng.integers(-2, 3, size=(k, n)) / 2.0
    spread = rng.normal(size=(k, n)) * 3.0
    cube = rng.integers(0, 2, size=(k, n)).astype(float)
    return np.concatenate([ties, spread, cube, np.zeros((1, n)), np.ones((1, n))])


class TestTieRule:
    """Ties in x are ordered by index, so the subgradient is a fixed greedy vertex."""

    @pytest.mark.parametrize(
        "x, order",
        [
            ([0.5, 0.5, 0.5], [0, 1, 2]),
            ([0.1, 0.9, 0.5], [1, 2, 0]),
            ([-1.0, 0.0, 0.0], [1, 2, 0]),
            ([0.0, 1.0, 0.0], [1, 0, 2]),
        ],
    )
    def test_subgradient_is_index_order_vertex(self, k3_cut, x, order):
        ev = envelope_eval(k3_cut, x)
        want = greedy_vertex(k3_cut, order)
        assert ev.subgradient.tobytes() == want.tobytes()
        assert ev.value == float(want @ np.asarray(x))


class TestGreedyVertex:
    def test_k3_identity_order(self, k3_cut):
        sigma = greedy_vertex(k3_cut, [0, 1, 2])
        assert sigma.tolist() == [2.0, 0.0, -2.0]

    def test_k3_rotated_order(self, k3_cut):
        sigma = greedy_vertex(k3_cut, [1, 2, 0])
        assert sigma.tolist() == [-2.0, 2.0, 0.0]

    def test_modular_any_order(self):
        c = np.array([1.0, -2.0, 3.5])
        f = ref.modular(c)
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            assert np.allclose(greedy_vertex(f, order), c)

    def test_matches_reference_sigma(self, k3_cut):
        for order in itertools.permutations(range(3)):
            got = greedy_vertex(k3_cut, list(order))
            want = ref.greedy_sigma(
                lambda x: ref.cut_value(ref.K3_EDGES, x), list(order)
            )
            assert np.allclose(got, want)


class TestEnvelopeEval:
    def test_k3_interior_point(self, k3_cut):
        ev = envelope_eval(k3_cut, [1.0, 0.5, 0.0])
        assert ev.value == pytest.approx(2.0, abs=1e-12)
        assert ev.subgradient.tolist() == [2.0, 0.0, -2.0]

    def test_k3_negative_point(self, k3_cut):
        ev = envelope_eval(k3_cut, [-1.0, 0.0, 0.0])
        assert ev.value == pytest.approx(2.0, abs=1e-12)
        assert ev.subgradient.tolist() == [-2.0, 2.0, 0.0]

    def test_diagonal_ray_is_zero(self, k3_cut):
        for lam in (-2.0, -0.5, 0.0, 1.0, 3.0):
            ev = envelope_eval(k3_cut, lam * np.ones(3))
            assert ev.value == pytest.approx(0.0, abs=1e-12)

    def test_value_equals_subgradient_dot(self, k3_cut):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=3)
            ev = envelope_eval(k3_cut, x)
            assert ev.value == pytest.approx(float(ev.subgradient @ x), abs=1e-12)

    def test_nan_rejected(self, k3_cut):
        with pytest.raises(ValueError):
            envelope_eval(k3_cut, [math.nan, 0, 0])

    def test_optimality_against_enumeration(self):
        rng = np.random.default_rng(13)
        for n in range(3, 6):
            f = random_cut_oracle(rng, n)
            values = lambda x: f.value(np.array(x, dtype=float))
            for _ in range(20):
                x = rng.uniform(-2, 2, size=n)
                got = envelope_eval(f, x).value
                want = ref.envelope_by_enumeration(values, n, x)
                assert got == pytest.approx(want, abs=1e-9)

    def test_extension_identity_on_cube(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            f = random_cut_oracle(rng, n)
            for mask in range(1 << n):
                x = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
                assert envelope_eval(f, x).value == pytest.approx(f.value(x), abs=1e-12)

    def test_positive_homogeneity(self, k3_cut):
        rng = np.random.default_rng(37)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=3)
            lam = float(rng.uniform(0, 4))
            assert envelope_eval(k3_cut, lam * x).value == pytest.approx(
                lam * envelope_eval(k3_cut, x).value, abs=1e-9
            )

    def test_ray_linearity(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            f = random_cut_oracle(rng, n)
            x = rng.uniform(-3, 3, size=n)
            lam = float(rng.uniform(-5, 5))
            lhs = envelope_eval(f, x + lam * np.ones(n)).value
            rhs = envelope_eval(f, x).value + lam * f.value(np.ones(n))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(43)
        f = random_cut_oracle(rng, 5)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=5)
            y = rng.uniform(-2, 2, size=5)
            mid = envelope_eval(f, (x + y) / 2).value
            avg = (envelope_eval(f, x).value + envelope_eval(f, y).value) / 2
            assert mid <= avg + 1e-9

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(47)
        f = random_cut_oracle(rng, 4)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=4)
            s = envelope_eval(f, x).subgradient
            for _ in range(10):
                y = rng.uniform(-2, 2, size=4)
                assert envelope_eval(f, y).value >= float(s @ y) - 1e-9


class TestEnvelopeBlock:
    @pytest.mark.parametrize("family", sorted(BLOCK_ORACLES))
    def test_rows_match_point_evaluations(self, family):
        rng = np.random.default_rng(61)
        for n in (1, 2, 5, 9):
            f = BLOCK_ORACLES[family](rng, n)
            x = block_rows(rng, n, 15)
            ev = envelope_eval(f, x)
            assert ev.value.shape == (x.shape[0],) and ev.subgradient.shape == x.shape
            for row, value, sub in zip(x, ev.value, ev.subgradient):
                point = envelope_eval(f, row)
                assert float(value).hex() == point.value.hex()
                assert sub.tobytes() == point.subgradient.tobytes()

    def test_empty_block(self, k3_cut):
        ev = envelope_eval(k3_cut, np.zeros((0, 3)))
        assert ev.value.shape == (0,) and ev.subgradient.shape == (0, 3)

    @pytest.mark.parametrize("bad", [
        np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((2, 2, 3)), np.float64(1.0),
    ], ids=["narrow", "wide", "3d", "scalar"])
    def test_bad_shape_rejected(self, k3_cut, bad):
        with pytest.raises(ValueError):
            envelope_eval(k3_cut, bad)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, k3_cut, entry):
        x = np.zeros((4, 3))
        x[2, 1] = entry
        with pytest.raises(ValueError):
            envelope_eval(k3_cut, x)


def _envelope_cases(st):
    """(oracle, rows): a random cut or submodular multilinear oracle on n <= 5 and 1-6 points."""

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 5))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        family = draw(st.sampled_from(["cut", "multilinear"]))
        coords = st.floats(-4.0, 4.0) | st.sampled_from([0.0, 0.5, 1.0, -1.0])
        rows = draw(st.lists(st.lists(coords, min_size=n, max_size=n), min_size=1, max_size=6))
        return BLOCK_ORACLES[family](rng, n), np.array(rows)

    return cases()


class TestEnvelopeProperties:
    def test_equals_f_on_cube(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(_envelope_cases(hypothesis.strategies))
        def check(case):
            f, _ = case
            for mask in range(1 << f.n):
                x = np.array([(mask >> i) & 1 for i in range(f.n)], dtype=float)
                assert envelope_eval(f, x).value == pytest.approx(f.value(x), abs=1e-12)

        check()

    def test_positively_homogeneous(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(_envelope_cases(hypothesis.strategies), hypothesis.strategies.floats(0.0, 8.0))
        def check(case, lam):
            f, rows = case
            for x in rows:
                assert envelope_eval(f, lam * x).value == pytest.approx(
                    lam * envelope_eval(f, x).value, abs=1e-9
                )

        check()

    def test_equals_bruteforce_max(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(_envelope_cases(hypothesis.strategies))
        def check(case):
            f, rows = case
            for x in rows:
                assert envelope_eval(f, x).value == pytest.approx(
                    envelope_by_enumeration(f, x), abs=1e-9
                )

        check()

    def test_block_matches_points(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(_envelope_cases(hypothesis.strategies))
        def check(case):
            f, rows = case
            ev = envelope_eval(f, rows)
            for x, value, sub in zip(rows, ev.value, ev.subgradient):
                point = envelope_eval(f, x)
                assert float(value).hex() == point.value.hex()
                assert sub.tobytes() == point.subgradient.tobytes()

        check()


class TestSupportPoints:
    def test_k3_first_prefix(self, k3_cut):
        pts = support_points(k3_cut, [0, 1, 2])
        v1, f1 = pts[1]
        assert v1.tolist() == [1.0, 0.0, 0.0] and f1 == 2.0
        sigma = greedy_vertex(k3_cut, [0, 1, 2])
        assert float(sigma @ v1) == f1

    def test_endpoints(self, k3_cut):
        pts = support_points(k3_cut, [2, 0, 1])
        v0, f0 = pts[0]
        assert np.all(v0 == 0.0) and f0 == 0.0
        vn, fn = pts[-1]
        assert np.all(vn == 1.0) and fn == k3_cut.value(np.ones(3))

    def test_identity_exact_random(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            f = random_cut_oracle(rng, n) if n >= 2 else ref.modular(rng.normal(size=1))
            order = rng.permutation(n)
            sigma = greedy_vertex(f, order)
            for v, fv in support_points(f, order):
                assert float(sigma @ v) == fv  # exact, not approximate


class TestChains:
    def test_prefix_chain(self):
        pts = chain_points([0, 1, 2])
        want = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
        assert [tuple(p) for p in pts] == want

    def test_chain_to_permutation(self):
        chain = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
        assert chain_to_permutation(chain).tolist() == [2, 1, 0]

    def test_round_trip_all_permutations(self):
        for order in itertools.permutations(range(3)):
            again = chain_to_permutation(chain_points(list(order)))
            assert tuple(again) == order

    def test_non_chain_rejected(self):
        bad = [(0, 0), (1, 1), (1, 1)]
        with pytest.raises(ValueError):
            chain_to_permutation(bad)

    def test_chain_missing_endpoint_rejected(self):
        bad = [(0, 0), (1, 0)]
        with pytest.raises(ValueError):
            chain_to_permutation(bad)


class TestEnumerateVertices:
    def test_k3_vertex_set(self, k3_cut):
        got = {tuple(v) for v in all_greedy_vertices(k3_cut)}
        want = {
            (2.0, 0.0, -2.0),
            (2.0, -2.0, 0.0),
            (0.0, 2.0, -2.0),
            (-2.0, 2.0, 0.0),
            (0.0, -2.0, 2.0),
            (-2.0, 0.0, 2.0),
        }
        assert got == want

    def test_modular_all_equal(self):
        c = [1.0, 2.0, 3.0]
        vertices = all_greedy_vertices(ref.modular(c))
        assert len(vertices) == 6
        assert all(np.allclose(v, c) for v in vertices)

    def test_single_variable(self):
        f = MultilinearFunction(1, [(-4.0, {0})])
        vertices = all_greedy_vertices(f)
        assert len(vertices) == 1 and vertices[0].tolist() == [-4.0]

    def test_bruteforce_helper_agrees(self, k3_cut):
        rng = np.random.default_rng(59)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=3)
            assert envelope_by_enumeration(k3_cut, x) == pytest.approx(
                envelope_eval(k3_cut, x).value, abs=1e-12
            )
