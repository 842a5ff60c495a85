import math

import numpy as np
import pytest

import _reference as ref
from subcut import cli
from subcut.errors import CAPACITY, CapacityError, ModelError
from subcut.harness import autocorr_polynomial, pw_graph, sidecar_primal
from subcut.oracles import (
    CubeBasis,
    Graph,
    MultilinearFunction,
    SSFunction,
    complement_symmetric,
    cube_table,
    cut_polynomial,
    number_text,
    read_graph,
    read_polynomial,
    ss_decompose,
    submodular_by_sign,
    write_graph,
    write_polynomial,
)


@pytest.fixture
def k3():
    return Graph(3, ref.K3_EDGES)


@pytest.fixture
def k3_cut(k3):
    return cut_polynomial(k3)


class TestGraph:
    def test_edges_canonicalized(self):
        g = Graph(3, [(2, 0, 1.5)])
        assert g.edges == [(0, 2, 1.5)]

    def test_duplicate_edges_merge(self):
        g = Graph(3, [(0, 1, 1.0), (1, 0, 2.0)])
        assert g.edges == [(0, 1, 3.0)]
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError):
            Graph(3, [(1, 1, 1.0)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ModelError):
            Graph(3, [(0, 3, 1.0)])


class TestEvaluate:
    def test_zero_point_is_normalized(self, k3_cut):
        assert k3_cut.value(np.zeros(3)) == 0.0

    def test_singleton_cut(self, k3_cut):
        assert k3_cut.value([1, 0, 0]) == 2.0
        assert k3_cut.value([1, 0, 0]) == ref.cut_value(ref.K3_EDGES, (1, 0, 0))

    def test_full_set_cuts_nothing(self, k3_cut):
        assert k3_cut.value([1, 1, 1]) == 0.0

    def test_dimension_mismatch(self, k3_cut):
        with pytest.raises(ValueError):
            k3_cut.value([1, 0])


class TestCutOracle:
    def test_pair_cut(self, k3_cut):
        assert k3_cut.value([1, 1, 0]) == 2.0

    def test_single_edge(self):
        f = cut_polynomial(Graph(2, [(0, 1, 5.0)]))
        assert f.value([1, 0]) == 5.0

    def test_empty_graph(self):
        f = cut_polynomial(Graph(4, []))
        for x in ([0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]):
            assert f.value(x) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ModelError):
            cut_polynomial(Graph(2, [(0, 1, -1.0)]))

    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            edges = [
                (int(i), int(j), float(rng.integers(1, 9)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            f = cut_polynomial(Graph(n, edges))
            for _ in range(10):
                x = rng.integers(0, 2, size=n)
                assert f.value(x) == pytest.approx(ref.cut_value(edges, x), abs=1e-12)


def naive_chain(edges, order):
    """Cut values along the prefix chain of ``order``, summed from marginal gains one vertex at a time."""
    x = [0] * len(order)
    chain = [0.0]
    for v in order:
        before = ref.cut_value(edges, x)
        x[v] = 1
        chain.append(chain[-1] + (ref.cut_value(edges, x) - before))
    return np.array(chain)


class TestCutChainExactness:
    # the chains of the envelope's greedy reference, ref.chain_values: with integer
    # weights every chain sum is exact, so a cut polynomial's chains equal a
    # vertex-by-vertex walk of cut values bit for bit
    @pytest.mark.parametrize("max_weight", [1, 100], ids=["g05", "pw"])
    def test_integer_weights_bit_for_bit(self, max_weight):
        rng = np.random.default_rng(41)
        for seed, n in enumerate((2, 3, 5, 8, 10, 12)):
            for density in (0.15, 0.5, 1.0):
                g = pw_graph(n, density, seed, max_weight=max_weight)
                f = cut_polynomial(g)
                orders = np.array([rng.permutation(n) for _ in range(6)])
                expected = np.array([naive_chain(g.edges, o) for o in orders])
                for order, row in zip(orders, expected):
                    assert ref.chain_values(f, order).tobytes() == row.tobytes()
                assert ref.chain_values(f, orders).tobytes() == expected.tobytes()

    def test_fractional_weights_close(self):
        rng = np.random.default_rng(43)
        for n in (3, 7, 12):
            g = Graph(n, [(i, j, float(rng.uniform(0.01, 100.0))) for i, j, _ in pw_graph(n, 0.5, n).edges])
            f = cut_polynomial(g)
            orders = np.array([rng.permutation(n) for _ in range(8)])
            expected = np.array([naive_chain(g.edges, o) for o in orders])
            got = ref.chain_values(f, orders)
            assert np.all(np.abs(got - expected) <= 1e-12 * (1.0 + np.abs(expected)))
            for order, row in zip(orders, got):
                assert ref.chain_values(f, order).tobytes() == row.tobytes()



CUBE_ORACLES = {
    "cut": lambda: cut_polynomial(Graph(
        5, [(0, 1, 2.0), (0, 3, 0.5), (1, 2, 3.0), (2, 4, 1.25), (3, 4, 4.0)],
    )),
    "multilinear": lambda: MultilinearFunction(
        5, [(1.5, {0}), (-2.0, {1, 3}), (0.25, {0, 2, 4}), (3.0, {1, 2, 3, 4})],
    ),
    "modular": lambda: ref.modular([1.5, -2.0, 0.25, 3.0, -0.5]),
}


@pytest.mark.parametrize("family", sorted(CUBE_ORACLES))
def test_chain_values_block_matches_rows(family):
    f = CUBE_ORACLES[family]()
    rng = np.random.default_rng(7)
    orders = np.array([rng.permutation(f.n) for _ in range(12)])
    block = ref.chain_values(f, orders)
    assert block.shape == (12, f.n + 1)
    for order, row in zip(orders, block):
        assert row.tobytes() == ref.chain_values(f, order).tobytes()
    assert ref.chain_values(f, orders[:0]).shape == (0, f.n + 1)


@pytest.mark.parametrize("family", sorted(CUBE_ORACLES))
def test_values_on_cube_matches_pointwise(family):
    f = CUBE_ORACLES[family]()
    vals = ref.values_on_cube(f)
    assert vals.shape == (1 << f.n,)
    for mask in range(1 << f.n):
        x = [(mask >> i) & 1 for i in range(f.n)]
        assert vals[mask] == f.value(x)


class TestComplementSymmetric:
    def test_matches_the_reversed_table(self):
        # entry 2^n - 1 - m of the table is the complement of point m, so f is
        # symmetric iff its table reads the same reversed; integer coefficients keep both exact
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def polys(draw):
            n = draw(st.integers(1, 8))
            support = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 4))
            terms = draw(st.lists(st.tuples(st.integers(-9, 9).map(float), support), max_size=12))
            family = draw(st.sampled_from(["any", "zero sum", "complemented"]))
            if family == "zero sum" and terms:
                terms.append((-sum(a for a, _ in terms), terms[0][1]))
            return ref.with_complement(n, terms) if family == "complemented" else MultilinearFunction(n, terms)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(polys())
        def check(poly):
            table = cube_table(poly)
            assert complement_symmetric(poly) == np.array_equal(table, table[::-1])

        check()

    def test_cases(self, k3):
        assert complement_symmetric(cut_polynomial(k3))
        assert complement_symmetric(cut_polynomial(Graph(6, [(1, 4, 2.0)])))  # isolated vertices too
        assert complement_symmetric(MultilinearFunction(3, []))
        assert complement_symmetric(ref.with_complement(4, [(3.0, {0, 1, 2}), (-1.0, {3})]))
        # coefficients summing to 0, so only the conditions past S = {} reject them
        assert not complement_symmetric(MultilinearFunction(2, [(1.0, {0}), (-1.0, {1})]))
        assert not complement_symmetric(MultilinearFunction(2, [(1.0, {0, 1}), (-1.0, {0})]))
        assert not complement_symmetric(MultilinearFunction(1, [(2.0, {0})]))
        # -x0 x3 (1 - x1)(1 - x2): every sum over S of at most one member is 0, and a pair's is not
        corner = [(-1.0, {0, 3}), (1.0, {0, 1, 3}), (1.0, {0, 2, 3}), (-1.0, {0, 1, 2, 3})]
        assert not complement_symmetric(MultilinearFunction(4, corner))

    def test_exact_sums(self):
        # the three doubles sum to 2^-55 exactly, so the coefficients do not sum to 0
        poly = MultilinearFunction(3, [(0.1, {0}), (0.2, {1}), (-0.3, {2})])
        assert math.fsum([0.1, 0.2, -0.3]) == 2.0**-55 and not complement_symmetric(poly)
        # a sum whose partial sums overflow the doubles counts as nonzero, and raises nothing
        huge = MultilinearFunction(2, [(1e308, {0}), (1e308, {1}), (-1e308, {0, 1})])
        assert not complement_symmetric(huge)


class TestCubeTable:
    def test_matches_values_on_cube(self):
        # pins the layout against a term-by-term loop: entry m is the point x_i = bit i of m
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def polys(draw):
            n = draw(st.integers(1, 10))
            support = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 4))
            coef = st.integers(-9, 9).map(float)
            return MultilinearFunction(n, draw(st.lists(st.tuples(coef, support), max_size=25)))

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(polys())
        def check(poly):
            table = cube_table(poly)
            assert table.shape == (1 << poly.n,)
            masks = np.arange(1 << poly.n, dtype=np.int64)
            assert np.array_equal(table, ref.poly_values(poly.terms, masks))

        check()

    def test_single_variable(self):
        table = cube_table(MultilinearFunction(1, [(2.5, {0})]))
        assert table.shape == (2,) and table.tolist() == [0.0, 2.5]

    def test_edgeless_graph(self):
        table = cube_table(cut_polynomial(Graph(5, [])))
        assert table.shape == (32,) and not table.any()

    def test_cut_values(self, k3):
        table = cube_table(cut_polynomial(k3))
        expected = [ref.cut_value(k3.edges, [(m >> i) & 1 for i in range(3)]) for m in range(8)]
        assert table.tolist() == expected

    def test_capacity(self):
        with pytest.raises(CapacityError):
            cube_table(MultilinearFunction(21, [(1.0, {0, 20})]))


class TestCubeLeast:
    """``CubeBasis.least`` against the first argmin of the full table, excluded entries at inf."""

    @staticmethod
    def first_argmin(table, excluded):
        table = table.copy()
        if excluded is not None:
            table[excluded] = math.inf
        k = int(np.argmin(table))
        return float(table[k]), k

    @pytest.mark.parametrize("n", [1, 3, 8, 11, 14, 17, 20])
    @pytest.mark.parametrize("exclude", [False, True])
    def test_first_argmin_of_the_table(self, n, exclude):
        # coefficients in {-1, 0, 1} leave many ties, across the row blocks too
        rng = np.random.default_rng(n + 100 * exclude)
        supports = {frozenset(rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False).tolist())
                    for _ in range(2 * n)}
        basis = CubeBasis(n, list(supports))
        for _ in range(3):
            coefs = rng.integers(-1, 2, size=len(supports)).astype(float)
            excluded = rng.random(1 << n) < 0.3 if exclude else None
            assert basis.least(coefs, excluded) == self.first_argmin(basis.table(coefs), excluded)

    def test_fractional_coefficients(self):
        rng = np.random.default_rng(4)
        supports = [frozenset(rng.choice(12, size=3, replace=False).tolist()) for _ in range(20)]
        basis = CubeBasis(12, supports)
        coefs = rng.normal(size=len(supports))
        least, mask = basis.least(coefs)
        assert mask == int(np.argmin(basis.table(coefs)))
        assert least == pytest.approx(float(basis.table(coefs).min()), abs=1e-12)

    @pytest.mark.parametrize("n", [4, 20])
    def test_all_tied_gives_the_least_bitmask(self, n):
        basis = CubeBasis(n, [frozenset({0}), frozenset({0, n - 1})])
        assert basis.least(np.zeros(2)) == (0.0, 0)
        excluded = np.zeros(1 << n, dtype=bool)
        excluded[:5] = True
        assert basis.least(np.zeros(2), excluded) == (0.0, 5)
        assert CubeBasis(n, []).least(np.zeros(0)) == (0.0, 0)

    def test_every_entry_excluded(self):
        basis = CubeBasis(6, [frozenset({1, 4})])
        assert basis.least(np.array([-2.0]), np.ones(64, dtype=bool)) == (math.inf, 0)

    def test_least_in_the_last_block(self):
        # -x_19: the first bitmask with bit 19 set is the least one, in a later block of rows
        basis = CubeBasis(20, [frozenset({19}), frozenset({0, 10})])
        assert basis.least(np.array([-1.0, 0.5])) == (-1.0, 1 << 19)

    @pytest.mark.parametrize("density, columns", [(0.5, 12), (0.15, 10)])
    def test_folded_halves(self, density, columns):
        # g05 n=20: 29 (dense) and 15 (sparse) product columns with a group per B half, fewer
        # with each half's own supports folded into one column
        poly = cut_polynomial(pw_graph(20, density, seed=1000, max_weight=1))
        v, u = CubeBasis(20, [s for _, s in poly.terms])._halves(np.array([a for a, _ in poly.terms]))
        assert v.shape == (1 << 10, columns) and u.shape == (columns, 1 << 10)

    @pytest.mark.parametrize("poly", [
        cut_polynomial(pw_graph(20, 0.5, 1000, max_weight=1)),
        cut_polynomial(pw_graph(20, 0.15, 1000, max_weight=1)),
        autocorr_polynomial(12, 2, 0.2, 1000),
        autocorr_polynomial(12, 3, 1.0, 1001),
    ], ids=["g05-dense", "g05-sparse", "autocorr-lag2", "autocorr-lag3"])
    def test_bit_table_builds_the_former_basis(self, poly):
        # each support's bitmask comes from a table of bits, not from shifts
        supports = [s for _, s in poly.terms]
        supports += [frozenset({j}) for j in range(poly.n)]  # the singletons of a validator's basis
        basis = CubeBasis(poly.n, supports)
        order, slot, grid, a_ind, h_ind = ref.former_cube_basis(poly.n, supports)
        assert basis.grid == grid
        for got, want in [(basis.order, order), (basis.slot, slot), (basis.a_ind, a_ind), (basis.h_ind, h_ind)]:
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestMultilinearFunction:
    def test_examples(self):
        p = MultilinearFunction(3, [(3.0, {0, 1}), (-2.0, {0, 1, 2})])
        assert p.value([1, 1, 0]) == 3.0
        assert p.value([1, 1, 1]) == 1.0
        assert p.value([0, 0, 0]) == 0.0

    def test_duplicate_supports_merge(self):
        p = MultilinearFunction(2, [(1.0, {0, 1}), (2.5, {1, 0})])
        assert p.terms == [(3.5, frozenset({0, 1}))]

    def test_cancelling_terms_drop(self):
        p = MultilinearFunction(2, [(1.0, {0, 1}), (-1.0, {0, 1})])
        assert p.terms == []

    def test_empty_support_rejected(self):
        with pytest.raises(ModelError):
            MultilinearFunction(2, [(1.0, set())])

    def test_index_out_of_range(self):
        with pytest.raises(ModelError):
            MultilinearFunction(2, [(1.0, {0, 2})])

    def test_degree(self):
        p = MultilinearFunction(4, [(1.0, {0}), (1.0, {1, 2, 3})])
        assert p.degree == 3

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            terms = []
            for _ in range(int(rng.integers(1, 8))):
                size = int(rng.integers(1, min(n, 4) + 1))
                support = frozenset(rng.choice(n, size=size, replace=False).tolist())
                terms.append((float(rng.integers(-5, 6)), support))
            f = MultilinearFunction(n, terms)
            for _ in range(8):
                x = rng.integers(0, 2, size=n)
                assert f.value(x) == pytest.approx(
                    ref.multilinear_value(terms, x), abs=1e-12
                )


class TestSsDecompose:
    def test_sign_split_structure(self):
        p = MultilinearFunction(3, [(3.0, {0, 1}), (-2.0, {0, 1, 2})])
        ss = ss_decompose(p)
        assert ss.f1.value([1, 1, 1]) == -2.0  # negative term kept verbatim
        assert ss.f2.value([1, 1, 0]) == -3.0  # positive term negated
        assert ss.level == 1

    def test_identity_on_cube(self):
        p = MultilinearFunction(3, [(3.0, {0, 1}), (-2.0, {0, 1, 2})])
        ss = ss_decompose(p)
        for mask in range(8):
            x = [(mask >> i) & 1 for i in range(3)]
            assert ss.f1.value(x) - ss.f2.value(x) == pytest.approx(
                ref.multilinear_value(p.terms, x), abs=1e-15
            )

    def test_degree_one_terms_in_first_part(self):
        p = MultilinearFunction(3, [(2.0, {0}), (-1.5, {1}), (3.0, {0, 1}), (-2.0, {1, 2}), (1.0, {0, 1, 2})])
        ss = ss_decompose(p)
        assert ss.f1.terms == [(2.0, frozenset({0})), (-1.5, frozenset({1})), (-2.0, frozenset({1, 2}))]
        assert ss.f2.terms == [(-3.0, frozenset({0, 1})), (-1.0, frozenset({0, 1, 2}))]
        assert ref.is_submodular_bruteforce(ss.f1) and ref.is_submodular_bruteforce(ss.f2)

    def test_cut_polynomial_is_its_own_first_part(self):
        graphs = [Graph(3, ref.K3_EDGES), pw_graph(8, 0.5, 3), Graph(4, [(0, 1, 2.0), (2, 3, 0.0)])]
        for graph in graphs:
            ss = ss_decompose(cut_polynomial(graph))
            assert ss.f1.terms == cut_polynomial(graph).terms
            assert ss.f2.n == graph.n and ss.f2.terms == []

    def test_all_negative_coefficients(self):
        p = MultilinearFunction(2, [(-1.0, {0}), (-4.0, {0, 1})])
        ss = ss_decompose(p)
        assert ss.f2.trivially_zero
        assert all(ss.f2.value([a, b]) == 0.0 for a in (0, 1) for b in (0, 1))

    def test_empty_polynomial(self):
        ss = ss_decompose(MultilinearFunction(2, []))
        assert ss.f1.trivially_zero and ss.f2.trivially_zero

    def test_level_flag(self):
        p = MultilinearFunction(2, [(1.0, {0})])
        assert ss_decompose(p, level=0).level == 0
        with pytest.raises(ValueError):
            ss_decompose(p, level=2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SSFunction(MultilinearFunction(2, []), MultilinearFunction(3, []))

    def test_identity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            terms = []
            for _ in range(int(rng.integers(1, 12))):
                size = int(rng.integers(1, min(n, 4) + 1))
                support = frozenset(rng.choice(n, size=size, replace=False).tolist())
                terms.append((float(rng.normal()), support))
            p = MultilinearFunction(n, terms)
            ss = ss_decompose(p)
            for mask in range(1 << n):
                x = [(mask >> i) & 1 for i in range(n)]
                got = ss.f1.value(x) - ss.f2.value(x)
                assert got == pytest.approx(ref.multilinear_value(p.terms, x), abs=1e-12)

    def test_parts_submodular_random(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            n = int(rng.integers(2, 7))
            terms = []
            for _ in range(int(rng.integers(1, 10))):
                size = int(rng.integers(1, min(n, 4) + 1))
                support = frozenset(rng.choice(n, size=size, replace=False).tolist())
                terms.append((float(rng.normal()), support))
            ss = ss_decompose(MultilinearFunction(n, terms))
            assert submodular_by_sign(ss.f1) and submodular_by_sign(ss.f2)
            assert ref.is_submodular_bruteforce(ss.f1)
            assert ref.is_submodular_bruteforce(ss.f2)


class TestModular:
    def test_weights_and_values(self):
        f = ref.modular([1.0, -2.0, 0.5])
        assert f.value([1, 1, 1]) == pytest.approx(-0.5)
        assert f.value([0, 1, 0]) == -2.0

    def test_zero_oracle_trivial_flag(self):
        assert MultilinearFunction(3, []).trivially_zero
        assert not ref.modular([0.0, 1.0]).trivially_zero


class TestIsSubmodular:
    def test_triangle_cut(self, k3_cut):
        assert ref.is_submodular_bruteforce(k3_cut)

    def test_positive_product_is_not(self):
        f = MultilinearFunction(2, [(1.0, {0, 1})])
        assert not ref.is_submodular_bruteforce(f)

    def test_modular_is(self):
        assert ref.is_submodular_bruteforce(ref.modular([3.0, -1.0, 2.0]))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            ref.is_submodular_bruteforce(MultilinearFunction(15, []))

    def test_agrees_with_pair_loop(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            terms = []
            for _ in range(int(rng.integers(1, 6))):
                size = int(rng.integers(1, n + 1))
                support = frozenset(rng.choice(n, size=size, replace=False).tolist())
                terms.append((float(rng.integers(-3, 4)), support))
            p = MultilinearFunction(n, terms)
            expected = ref.is_submodular_pairs(
                lambda x: ref.multilinear_value(p.terms, x), n
            )
            assert ref.is_submodular_bruteforce(p) == expected

    def test_cut_oracles_submodular_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            edges = [
                (i, j, float(rng.integers(0, 5)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.6
            ]
            edges = [e for e in edges if e[2] > 0]
            assert ref.is_submodular_bruteforce(cut_polynomial(Graph(n, edges)))


def random_signed_poly(rng, n, max_degree, high_coefs):
    """Up to 9 terms: degree-1 coefficients in -3..3, higher ones drawn from ``high_coefs``."""
    terms = []
    for _ in range(int(rng.integers(1, 10))):
        size = int(rng.integers(1, min(n, max_degree) + 1))
        support = rng.choice(n, size=size, replace=False).tolist()
        coef = rng.integers(-3, 4) if size == 1 else rng.choice(high_coefs)
        terms.append((float(coef), support))
    return MultilinearFunction(n, terms)


class TestSubmodularBySign:
    def test_exact_at_degree_two(self):
        rng = np.random.default_rng(37)
        verdicts = []
        for _ in range(150):
            p = random_signed_poly(rng, int(rng.integers(2, 9)), 2, [-3, -2, -1, 1])
            verdicts.append(submodular_by_sign(p))
            assert verdicts[-1] == ref.is_submodular_bruteforce(p)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_implies_submodular_up_to_degree_four(self):
        rng = np.random.default_rng(41)
        certified = 0
        for _ in range(120):
            p = random_signed_poly(rng, int(rng.integers(2, 9)), 4, [-3, -2, -1, 1])
            if submodular_by_sign(p):
                certified += 1
                assert ref.is_submodular_bruteforce(p)
        assert certified >= 20

    def test_declines_a_submodular_cubic(self):
        # one-sided above degree 2: the positive cubic term never outweighs the pair terms
        f = MultilinearFunction(3, [(-1.0, {0, 1}), (-1.0, {0, 2}), (-1.0, {1, 2}), (1.0, {0, 1, 2})])
        assert ref.is_submodular_bruteforce(f)
        assert not submodular_by_sign(f)


class TestDecompositionResidual:
    """``subcut verify``'s term identity against the cube-table identity it replaced."""

    @staticmethod
    def table_gap(ss, p):
        return float(np.max(np.abs(cube_table(ss.f1) - cube_table(ss.f2) - cube_table(p))))

    def test_agrees_with_cube_tables_on_autocorr(self):
        for seed in range(6):
            p = autocorr_polynomial(4 + seed, max_lag=3, density=0.5, seed=seed)
            ss = ss_decompose(p)
            assert cli._residual(ss, p).trivially_zero and self.table_gap(ss, p) == 0.0
            # a part off by one coefficient fails both ways
            (a, s), rest = ss.f1.terms[-1], ss.f1.terms[:-1]
            wrong = SSFunction(MultilinearFunction(p.n, rest + [(a + 0.5, s)]), ss.f2)
            assert cli._residual(wrong, p).terms == [(0.5, s)]
            assert self.table_gap(wrong, p) == 0.5


class TestNormalization:
    def test_every_family_zero_at_origin(self):
        oracles = [
            cut_polynomial(Graph(3, ref.K3_EDGES)),
            MultilinearFunction(3, [(2.0, {0, 2})]),
            ref.modular([1.0, 2.0]),
            MultilinearFunction(4, []),
        ]
        for f in oracles:
            assert f.value(np.zeros(f.n)) == 0.0


class TestFileFormats:
    def test_graph_round_trip(self, tmp_path, k3):
        path = tmp_path / "k3.mc"
        write_graph(k3, path)
        again = read_graph(path)
        assert again.n == 3 and again.edges == k3.edges
        # header plus one line per edge, 1-based endpoints
        lines = path.read_text().strip().splitlines()
        assert lines[0].split() == ["3", "3"]
        assert lines[1].split()[:2] == ["1", "2"]

    def test_polynomial_round_trip(self, tmp_path):
        p = MultilinearFunction(4, [(1.5, {0, 3}), (-2.0, {1})])
        path = tmp_path / "p.pol"
        write_polynomial(p, path)
        again = read_polynomial(path)
        assert again.n == 4 and again.terms == p.terms

    def test_every_double_round_trips(self, tmp_path):
        """Every writer reads back bit-equal, and integer values still print as integers."""
        rng = np.random.default_rng(11)
        raw = rng.integers(0, 2**63, size=5000, dtype=np.int64).view(np.float64)  # positive bit patterns
        values = np.concatenate([raw[np.isfinite(raw) & (raw != 0.0)], rng.standard_normal(2000) / 3.0,
                                 [2 / 3, 1 / 3, 0.1, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]])
        values = values[-4095:]
        # one support per bitmask of 12 variables, so no two terms merge
        supports = [[j for j in range(12) if m >> j & 1] for m in range(1, values.size + 1)]
        signs = rng.choice([-1.0, 1.0], size=values.size)
        poly = MultilinearFunction(12, list(zip(signs * values, supports)))
        write_polynomial(poly, tmp_path / "p.pol")
        again = read_polynomial(tmp_path / "p.pol")
        assert [(a.hex(), s) for a, s in again.terms] == [(a.hex(), s) for a, s in poly.terms]
        pairs = [(i, j) for i in range(64) for j in range(i + 1, 64)]
        graph = Graph(64, [(i, j, float(w)) for (i, j), w in zip(pairs, values)])
        write_graph(graph, tmp_path / "g.mc")
        edges = read_graph(tmp_path / "g.mc").edges
        assert [(i, j, w.hex()) for i, j, w in edges] == [(i, j, w.hex()) for i, j, w in graph.edges]
        for value in signs[:40] * values[-40:]:  # the .sol sidecar, as generate_instances writes it
            tmp_path.joinpath("g.sol").write_text(number_text(value) + "\n")
            assert sidecar_primal(tmp_path / "g.mc").hex() == float(value).hex()
        assert [number_text(x) for x in (1.0, -1.0, 100.0, -0.0)] == ["1", "-1", "100", "-0"]
        write_polynomial(MultilinearFunction(2, [(2 / 3, {0, 1}), (-1.0, {0})]), tmp_path / "p.pol")
        assert tmp_path.joinpath("p.pol").read_text() == "2 2\n-1 1\n0.66666666666666663 1 2\n"

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.mc"
        path.write_text("# a comment\n2 1\n\n1 2 4.0  # trailing\n")
        g = read_graph(path)
        assert g.edges == [(0, 1, 4.0)]

    def test_graph_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.mc"
        path.write_text("3 2\n1 2 1.0\n")
        with pytest.raises(ModelError):
            read_graph(path)

    def test_polynomial_bad_index(self, tmp_path):
        path = tmp_path / "bad.pol"
        path.write_text("2 1\n1.0 3\n")
        with pytest.raises(ModelError):
            read_polynomial(path)

    @pytest.mark.parametrize("reader, suffix, text", [
        (read_graph, ".mc", "three 1\n1 2 1.0\n"),
        (read_graph, ".mc", "2 1\n1 2.5 1.0\n"),
        (read_graph, ".mc", "2 1\n1 2 heavy\n"),
        (read_graph, ".mc", "2 1\n1 2 inf\n"),
        (read_polynomial, ".pol", "2 one\n1.0 1\n"),
        (read_polynomial, ".pol", "2 1\nhalf 1 2\n"),
        (read_polynomial, ".pol", "2 1\n1.0 1 x\n"),
        (read_polynomial, ".pol", "2 1\nnan 1 2\n"),
        (read_graph, ".mc", ""),
        (read_graph, ".mc", "2 1 3\n1 2 1.0\n"),
        (read_graph, ".mc", "0 0\n"),
        (read_graph, ".mc", "2 2\n1 2 1.0\n"),
        (read_graph, ".mc", "2 1\n1 2 1.0 4\n"),
        (read_graph, ".mc", "2 1\n0 2 1.0\n"),
        (read_graph, ".mc", "2 1\n1 1 1.0\n"),
        (read_graph, ".mc", "2 1\n1 2 -2\n"),
        (read_graph, ".mc", "2 1\n1 2 1e999\n"),
        (read_polynomial, ".pol", "# only a comment\n"),
        (read_polynomial, ".pol", "2\n1.0 1\n"),
        (read_polynomial, ".pol", "-1 1\n1.0 1\n"),
        (read_polynomial, ".pol", "2 0\n1.0 1\n"),
        (read_polynomial, ".pol", "2 1\n1.0\n"),
        (read_polynomial, ".pol", "2 1\n1.0 1 3\n"),
        (read_polynomial, ".pol", "2 1\n1.0 1.0\n"),
        (read_polynomial, ".pol", "2 1\n-inf 2\n"),
        pytest.param(read_polynomial, ".pol", "1 1\n1.0 1" + "0" * 400 + "\n", id="read_polynomial-huge-index"),
    ])
    def test_unparsable_token(self, tmp_path, reader, suffix, text):
        path = tmp_path / f"bad{suffix}"
        path.write_text(text)
        with pytest.raises(ModelError, match=str(path)):
            reader(path)

    @pytest.mark.parametrize("reader, suffix, body", [(read_graph, ".mc", "1 2 1.0"),
                                                      (read_polynomial, ".pol", "1.0 1 2")])
    def test_header_n_within_the_instance_capacity(self, tmp_path, reader, suffix, body):
        limit = CAPACITY["instance file"]
        path = tmp_path / f"edge{suffix}"
        path.write_text(f"{limit} 1\n{body}\n")
        assert reader(path).n == limit
        for n in (limit + 1, 10**9, 10**400):
            path.write_text(f"{n} 1\n{body}\n")
            with pytest.raises(CapacityError, match=f"{path}: instance file limited to n <= {limit}, got n = {n}$"):
                reader(path)
