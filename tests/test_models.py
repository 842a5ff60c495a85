import itertools
import logging

import numpy as np
import pytest

import _reference as ref
from subcut.cuts import intersection_cut
from subcut.errors import ModelError
from subcut.models import (
    BmpInstance,
    LiftMap,
    build_model,
    linearize_term,
    project_corner,
)
from subcut.oracles import Graph, MultilinearFunction, cut_polynomial
from subcut.sfree import EnvelopeEpigraph
from subcut.simplex import CornerPolyhedron, corner, solve


def block_corner(apex, directions, eta_coef, eta_off, columns=None):
    """An unprojected corner from per-ray rows (bound rays on columns 0, 1, ... by default)."""
    apex = np.asarray(apex, dtype=float)
    k = len(eta_off)
    return CornerPolyhedron(
        apex=apex,
        columns=np.arange(k) if columns is None else np.asarray(columns),
        directions=np.asarray(directions, dtype=float).reshape(k, apex.size),
        eta_coef=np.asarray(eta_coef, dtype=float).reshape(k, apex.size),
        eta_off=np.asarray(eta_off, dtype=float),
    )


def k3_model():
    model, [target], lift = build_model(ref.cut_instance(Graph(3, ref.K3_EDGES)))
    return model, target, lift


def toy_poly():
    # 3 x1 x2 - 2 x1 x2 x3 in 0-based supports
    return MultilinearFunction(3, [(3.0, {0, 1}), (-2.0, {0, 1, 2})])


def solve_with_fixed_x(model, lift, x):
    fixed = np.asarray(x, dtype=float)
    lower = model.lower.copy()
    upper = model.upper.copy()
    lower[lift.x_cols] = fixed
    upper[lift.x_cols] = fixed
    pinned = type(model)(
        model.sense, model.objective, model.rows, model.row_senses,
        model.rhs, lower, upper,
    )
    return solve(pinned)


class TestBuildMaxcut:
    def test_k3_shape(self):
        model, target, lift = k3_model()
        assert model.ncols == 7
        assert ref.full_lp(model, lift).nrows == 10  # 3 edges x 3 linearization rows + the link row
        assert lift.x_cols.tolist() == [0, 1, 2]
        assert lift.t_col == 6
        assert len(lift.y_cols) == 3

    def test_k3_bound(self):
        model, _, lift = k3_model()
        sol = solve(model)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.x[lift.x_cols] == pytest.approx([0.5, 0.5, 0.5], abs=1e-9)
        y_cols = sorted(lift.y_cols.values())
        assert sol.x[y_cols] == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)

    def test_k3_t_bounds(self):
        model, _, lift = k3_model()
        assert model.lower[lift.t_col] == -6.0
        assert model.upper[lift.t_col] == 6.0

    def test_k3_target(self):
        _, target, _ = k3_model()
        assert target.level == 1
        assert target.f2.trivially_zero
        assert target.f1.value(np.array([1.0, 0.0, 0.0])) == 2.0

    def test_single_edge_bound(self):
        model, _, _ = build_model(ref.cut_instance(Graph(2, [(0, 1, 1.0)])))
        assert solve(model).objective == pytest.approx(1.0, abs=1e-9)

    def test_empty_graph(self):
        model, _, _ = build_model(ref.cut_instance(Graph(3, [])))
        assert solve(model).objective == pytest.approx(0.0, abs=1e-9)

    def test_negative_weight_rejected(self):
        with pytest.raises(ModelError):
            cut_polynomial(Graph(2, [(0, 1, -1.0)]))

    def test_model_log_line(self, caplog):
        with caplog.at_level(logging.INFO, logger="subcut.models"):
            k3_model()
        lines = [r.getMessage() for r in caplog.records]
        assert "MODEL n=3 y=3 rows=10 targets=1" in lines

    def test_binary_x_recovers_cut_value(self):
        model, target, lift = k3_model()
        for bits in itertools.product((0, 1), repeat=3):
            sol = solve_with_fixed_x(model, lift, bits)
            assert sol.objective == pytest.approx(ref.cut_value(ref.K3_EDGES, bits), abs=1e-9)


class TestCutPolynomial:
    def random_edges(self, rng, n):
        """Edges on the first n - 2 vertices (the last two stay isolated), some repeated."""
        pairs = [(i, j) for i in range(n - 2) for j in range(i + 1, n - 2) if rng.random() < 0.6]
        edges = [(i, j, float(rng.integers(1, 9))) for i, j in pairs]
        edges += [(j, i, float(rng.integers(1, 9))) for i, j in pairs if rng.random() < 0.3]
        return edges

    def test_equals_cut_value_on_cube(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            n = int(rng.integers(4, 8))
            edges = self.random_edges(rng, n)
            poly = cut_polynomial(Graph(n, edges))
            for bits in itertools.product((0, 1), repeat=n):
                x = np.array(bits, dtype=float)
                assert poly.value(x) == ref.cut_value(edges, bits)

    def test_degree_one_coefficients_are_weighted_degrees(self):
        graph = Graph(4, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 5.0)])
        terms = {tuple(sorted(s)): a for a, s in cut_polynomial(graph).terms}
        assert terms == {(0,): 7.0, (1,): 5.0, (2,): 8.0, (0, 1): -4.0, (0, 2): -10.0, (1, 2): -6.0}

    def test_objective_row(self):
        graph = Graph(4, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 5.0)])
        model, _, lift = build_model(ref.cut_instance(graph))
        row = model.rows[-1]
        assert model.row_senses[-1] == "<=" and model.rhs[-1] == 0.0
        assert row[lift.t_col] == 1.0
        assert row[lift.x_cols].tolist() == [-7.0, -5.0, -8.0, 0.0]
        for i, j, w in graph.edges:
            assert row[lift.y_cols[frozenset((i, j))]] == 2.0 * w

    def test_zero_weight_edge_adds_nothing(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)]
        with_zero, _, lift = build_model(ref.cut_instance(Graph(4, edges + [(1, 3, 0.0)])))
        without, _, _ = build_model(ref.cut_instance(Graph(4, edges)))
        assert frozenset((1, 3)) not in lift.y_cols
        assert solve(with_zero).objective == solve(without).objective


class TestLinearizeTerm:
    def test_triple_support_rows(self):
        rows, senses, rhs = linearize_term({0, 1, 2}, 3, np.arange(3), 4)
        assert rows.shape == (4, 4)
        assert senses == ["<=", "<=", "<=", ">="]
        for k in range(3):
            want = np.zeros(4)
            want[3] = 1.0
            want[k] = -1.0
            assert rows[k].tolist() == want.tolist()
            assert rhs[k] == 0.0
        assert rows[3].tolist() == [-1.0, -1.0, -1.0, 1.0]
        assert rhs[3] == -2.0

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            linearize_term({2}, 3, np.arange(3), 4)

    def test_exact_at_binary(self):
        # the feasible y interval collapses to the product at every binary x
        for size in range(2, 6):
            rows, senses, rhs = linearize_term(set(range(size)), size, np.arange(size), size + 1)
            for bits in itertools.product((0, 1), repeat=size):
                hi = min(bits)
                lo = max(0, sum(bits) - size + 1)
                prod = 1
                for b in bits:
                    prod *= b
                assert lo == hi == prod

    def test_all_ones_forces_one(self):
        rows, _, rhs = linearize_term({0, 1}, 2, np.arange(2), 3)
        z = np.array([1.0, 1.0, 1.0])
        assert float(rows[2] @ z) >= rhs[2] - 1e-12  # the lower row is tight


class TestBuildMubo:
    def test_unconstrained_shape(self):
        model, targets, lift = build_model(BmpInstance(toy_poly()))
        assert len(lift.y_cols) == 2
        assert model.ncols == 6
        assert ref.full_lp(model, lift).nrows == 8  # 3 + 4 linearization rows + the objective row
        assert len(targets) == 1
        assert targets[0].level == 1

    def test_decomposition_matches(self):
        _, targets, _ = build_model(BmpInstance(toy_poly()))
        t = targets[0]
        for bits in itertools.product((0, 1), repeat=3):
            x = np.array(bits, dtype=float)
            assert t.f1.value(x) - t.f2.value(x) == pytest.approx(
                toy_poly().value(x), abs=1e-12
            )

    def test_t_bounds_from_coefficients(self):
        model, _, lift = build_model(BmpInstance(toy_poly()))
        assert model.lower[lift.t_col] == -2.0
        assert model.upper[lift.t_col] == 3.0

    def test_objective_row(self):
        model, _, lift = build_model(BmpInstance(toy_poly()))
        row = model.rows[-1]
        assert model.row_senses[-1] == "<=" and model.rhs[-1] == 0.0
        assert row[lift.t_col] == 1.0
        assert row[lift.y_cols[frozenset({0, 1})]] == -3.0
        assert row[lift.y_cols[frozenset({0, 1, 2})]] == 2.0

    def test_constraint_adds_level_zero_target(self):
        cons = MultilinearFunction(3, [(1.0, {0, 1})])
        model, targets, lift = build_model(BmpInstance(toy_poly(), [cons]))
        assert len(targets) == 2
        assert targets[1].level == 0
        assert targets[1].f1.trivially_zero
        # the support {0,1} is shared, no extra y column
        assert len(lift.y_cols) == 2
        assert model.row_senses[-1] == ">="

    def test_degree_one_only(self):
        poly = MultilinearFunction(2, [(2.0, {0}), (-1.0, {1})])
        model, _, lift = build_model(BmpInstance(poly))
        assert len(lift.y_cols) == 0
        assert model.nrows == 1
        assert solve(model).objective == pytest.approx(2.0, abs=1e-9)

    def test_cardinality_row(self):
        inst = BmpInstance(toy_poly(), cardinality=1)
        model, _, lift = build_model(inst)
        assert model.row_senses[-1] == "="
        assert model.rhs[-1] == 1.0
        sol = solve(model)
        assert float(sol.x[lift.x_cols].sum()) == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BmpInstance(toy_poly(), [MultilinearFunction(2, [(1.0, {0})])])

    def test_model_log_line(self, caplog):
        with caplog.at_level(logging.INFO, logger="subcut.models"):
            build_model(BmpInstance(toy_poly()))
        assert "MODEL n=3 y=2 rows=8 targets=1" in [r.getMessage() for r in caplog.records]


class TestDeferredRows:
    """The linearization rows the objective can never make tight, held in ``LiftMap.deferred``."""

    @staticmethod
    def block(lift):
        d = lift.deferred
        return [(row.tolist(), sense, b) for row, sense, b in zip(d.rows, d.row_senses, d.rhs.tolist())]

    @staticmethod
    def upper_row(lift, support, j):
        """y_S <= x_j as a row of the lift's columns."""
        row = [0.0] * lift.ncols
        row[lift.y_cols[frozenset(support)]] = 1.0
        row[lift.x_cols[j]] = -1.0
        return (row, "<=", 0.0)

    @staticmethod
    def lower_row(lift, support):
        """y_S >= sum x_j - |S| + 1 as a row of the lift's columns."""
        row = [0.0] * lift.ncols
        row[lift.y_cols[frozenset(support)]] = 1.0
        for j in support:
            row[lift.x_cols[j]] = -1.0
        return (row, ">=", 1.0 - len(support))

    def test_k3_defers_the_upper_rows_of_each_edge(self):
        model, _, lift = k3_model()
        # each edge term is -2 x_i x_j, so its y <= x_i and y <= x_j rows never bind
        want = [self.upper_row(lift, {i, j}, k) for i, j in ((0, 1), (0, 2), (1, 2)) for k in (i, j)]
        assert self.block(lift) == want
        assert lift.deferred.ncols == model.ncols
        assert model.nrows == 4 and model.row_senses == [">=", ">=", ">=", "<="]

    def test_positive_term_defers_its_lower_row(self):
        _, _, lift = build_model(BmpInstance(toy_poly()))
        # +3 x0 x1 never binds its >= row, -2 x0 x1 x2 its three y <= x_j rows
        upper = [self.upper_row(lift, {0, 1, 2}, j) for j in range(3)]
        assert self.block(lift) == [self.lower_row(lift, {0, 1})] + upper
        assert lift.deferred.row_senses == [">=", "<=", "<=", "<="]

    @pytest.mark.parametrize("support", [{0, 1}, {1, 2}], ids=["shared", "constraint-only"])
    def test_support_in_a_constraint_defers_nothing(self, support):
        constraint = MultilinearFunction(3, [(1.0, {0}), (-1.0, support)])
        _, _, lift = build_model(BmpInstance(toy_poly(), constraints=[constraint]))
        # the constraint's support defers none of its rows; the others defer as without it
        want = [] if support == {0, 1} else [self.lower_row(lift, {0, 1})]
        assert self.block(lift) == want + [self.upper_row(lift, {0, 1, 2}, j) for j in range(3)]


class TestMilpEquivalence:
    def random_instance(self, rng, n):
        terms = []
        for _ in range(int(rng.integers(2, 7))):
            size = int(rng.integers(1, min(n, 3) + 1))
            support = set(rng.choice(n, size=size, replace=False).tolist())
            terms.append((float(rng.integers(-4, 5)), support))
        terms = [(a, s) for a, s in terms if a != 0.0] or [(1.0, {0})]
        return BmpInstance(MultilinearFunction(n, terms))

    def test_fixed_binary_x_recovers_polynomial(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            inst = self.random_instance(rng, n)
            model, _, lift = build_model(inst)
            for bits in itertools.product((0, 1), repeat=n):
                sol = solve_with_fixed_x(model, lift, bits)
                assert sol.objective == pytest.approx(
                    inst.objective.value(np.array(bits, dtype=float)), abs=1e-9
                )

    def test_lp_bound_dominates_optimum(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            inst = self.random_instance(rng, n)
            model, _, _ = build_model(inst)
            d1 = solve(model).objective
            best = ref.best_binary(
                lambda bits: inst.objective.value(np.array(bits, dtype=float)), n
            )
            assert d1 >= best - 1e-9


class TestProjectCorner:
    def test_k3_projection(self):
        model, _, lift = k3_model()
        sol = solve(model)
        cp = project_corner(corner(sol), lift)
        assert cp.apex.size == 7
        assert cp.apex_x.shape == (3,)
        assert cp.apex_x == pytest.approx([0.5, 0.5, 0.5], abs=1e-9)
        assert cp.apex_t == pytest.approx(3.0, abs=1e-9)
        assert cp.x_dir.shape == (cp.nrays, 3) and cp.x_dir.flags.c_contiguous
        assert cp.t_dir.shape == (cp.nrays,)
        assert np.array_equal(cp.x_dir, cp.directions[:, lift.x_cols])
        assert np.array_equal(cp.t_dir, cp.directions[:, lift.t_col])

    def test_ray_order_preserved(self):
        model, _, lift = k3_model()
        sol = solve(model)
        cp = corner(sol)
        before = cp.columns.tolist()
        project_corner(cp, lift)
        assert cp.columns.tolist() == before

    def test_size_mismatch_rejected(self):
        _, _, lift = k3_model()
        cp = block_corner(np.zeros(3), [], [], [])
        with pytest.raises(ValueError):
            project_corner(cp, lift)

    def test_y_only_ray_is_inert(self):
        # a ray moving only a lifted column projects to zero and never exits
        f = cut_polynomial(Graph(2, [(0, 1, 1.0)]))
        lift = LiftMap(n=2, x_cols=np.arange(2), t_col=3, y_cols={frozenset({0, 1}): 2}, ncols=4)
        apex = np.array([0.5, 0.5, 0.0, 0.5])
        e_y = np.array([0.0, 0.0, 1.0, 0.0])
        t_down = np.array([0.0, 0.0, 0.0, -1.0])
        cp = block_corner(apex, [e_y, t_down], [e_y, t_down], [0.0, 0.5], columns=[2, 3])
        project_corner(cp, lift)
        assert cp.x_dir[0].tolist() == [0.0, 0.0]
        assert cp.t_dir[0] == 0.0
        cut = intersection_cut(cp, EnvelopeEpigraph(f))
        assert cut is not None
        assert cut.infinite_steps == 1
        assert cut.coef[2] == 0.0  # the y column never enters the cut
