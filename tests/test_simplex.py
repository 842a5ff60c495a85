import math

import numpy as np
import pytest

import _reference as ref
from subcut import harness, simplex
from subcut.errors import NumericError
from subcut.models import BmpInstance, build_model
from subcut.oracles import cut_polynomial
from subcut.simplex import (
    INFEASIBLE,
    OPTIMAL,
    LpModel,
    corner,
    solve,
)


def box_lp():
    return LpModel(
        sense="max",
        objective=[1.0, 1.0],
        rows=[[1.0, 1.0]],
        row_senses=["<="],
        rhs=[1.0],
        lower=[0.0, 0.0],
        upper=[1.0, 1.0],
    )


def tent_lp():
    # max t with t <= 2 x1 and t <= 2 - 2 x1; apex at the tent ridge
    return LpModel(
        sense="max",
        objective=[0.0, 1.0],
        rows=[[-2.0, 1.0], [2.0, 1.0]],
        row_senses=["<=", "<="],
        rhs=[0.0, 2.0],
        lower=[0.0, 0.0],
        upper=[1.0, 10.0],
    )


class TestSolve:
    def test_box_lp(self):
        sol = solve(box_lp())
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_tent_lp(self):
        sol = solve(tent_lp())
        assert sol.status == OPTIMAL
        assert sol.x[0] == pytest.approx(0.5, abs=1e-9)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        model = LpModel(
            sense="max",
            objective=[1.0],
            rows=[[1.0]],
            row_senses=[">="],
            rhs=[2.0],
            lower=[0.0],
            upper=[1.0],
        )
        assert solve(model).status == INFEASIBLE

    def test_unbounded(self):
        # a column without an upper bound is refused, so no LP can be unbounded
        with pytest.raises(ValueError, match="finite lower and upper"):
            LpModel(
                sense="max",
                objective=[1.0],
                rows=np.zeros((0, 1)),
                row_senses=[],
                rhs=[],
                lower=[0.0],
                upper=[math.inf],
            )

    def test_min_sense(self):
        model = LpModel(
            sense="min",
            objective=[1.0, 2.0],
            rows=[[1.0, 1.0]],
            row_senses=[">="],
            rhs=[1.0],
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
        )
        sol = solve(model)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert sol.x.tolist() == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_equality_row_gets_fixed_logical(self):
        model = LpModel(
            sense="max",
            objective=[1.0, 1.0],
            rows=[[1.0, 1.0]],
            row_senses=["="],
            rhs=[0.7],
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
        )
        sol = solve(model)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(0.7, abs=1e-9)
        st = sol._state
        assert st._columns(np.array([2]))[:, 0].tolist() == [1.0]
        assert st.lo[2] == st.hi[2] == 0.0
        # the start puts both columns at 1, so the logical starts at -1.3 and must leave
        assert 2 not in sol.basis and sol.iterations >= 1
        assert 2 not in corner(sol).columns

    def test_equality_infeasible(self):
        model = LpModel(
            sense="max",
            objective=[1.0, 1.0],
            rows=[[1.0, 1.0]],
            row_senses=["="],
            rhs=[5.0],
            lower=[0.0, 0.0],
            upper=[1.0, 1.0],
        )
        assert solve(model).status == INFEASIBLE

    def test_iteration_cap(self):
        with pytest.raises(NumericError, match="iteration cap 1 reached"):
            simplex._DualSimplex(tent_lp(), max_iters=1).solve()

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(-3, 4, size=(4, 5)).astype(float)
        model = LpModel(
            sense="max",
            objective=rng.normal(size=5),
            rows=rows,
            row_senses=["<="] * 4,
            rhs=np.abs(rng.normal(size=4)) + 1.0,
            lower=np.zeros(5),
            upper=np.ones(5),
        )
        a, b = solve(model), solve(model)
        assert a.status == b.status == OPTIMAL
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations


class TestStartBasis:
    def mixed_lp(self):
        return LpModel(
            sense="max",
            objective=[1.0, 0.0, -1.0, 0.0],
            rows=[[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]],
            row_senses=["=", "<=", ">=", ">="],
            rhs=[1.0, 4.0, 3.0, 1.0],
            lower=[0.0, -2.0, -1.0, -1.0],
            upper=[1.0, 2.0, 5.0, 3.0],
        )

    def test_logical_columns(self):
        st = simplex._DualSimplex(self.mixed_lp())
        assert st._columns(np.arange(4, 8)).tolist() == np.diag([1.0, 1.0, -1.0, -1.0]).tolist()
        assert st.lo[4:].tolist() == [0.0] * 4
        assert st.hi[4:].tolist() == [0.0, math.inf, math.inf, math.inf]

    def test_start_point_and_basis(self):
        st = simplex._DualSimplex(self.mixed_lp())
        # minimized costs (-1, 0, 1, 0): x0 starts at its upper bound, the rest at their lower
        assert st.dirn.tolist() == [-1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        assert st.basis.tolist() == [4, 5, 6, 7]
        # logical = sign * (rhs - a.z) with z = (1, -2, -1, -1)
        assert st.val.tolist() == [1.0, -2.0, -1.0, -1.0, 2.0, 4.0, -6.0, -2.0]
        assert st.Binv.tolist() == np.diag([1.0, 1.0, -1.0, -1.0]).tolist()
        assert st.d.tolist() == [-1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # dual feasible

    def test_solves(self):
        model = self.mixed_lp()
        sol = solve(model)
        want = ref.lp_enumerate(model.objective, model.rows, model.row_senses, model.rhs,
                                model.lower, model.upper)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(want, abs=1e-9)


class TestModelValidation:
    def test_bad_sense(self):
        with pytest.raises(ValueError):
            LpModel("best", [1.0], np.zeros((0, 1)), [], [], [0.0], [1.0])

    def test_crossed_bounds(self):
        with pytest.raises(ValueError):
            LpModel("max", [1.0], np.zeros((0, 1)), [], [], [2.0], [1.0])

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            LpModel("max", [1.0], [[1.0]], ["<=", "<="], [1.0], [0.0], [1.0])

    def test_bad_row_sense(self):
        with pytest.raises(ValueError):
            LpModel("max", [1.0], [[1.0]], ["<"], [1.0], [0.0], [1.0])

    def test_nonfinite_rows(self):
        with pytest.raises(ValueError):
            LpModel("max", [1.0], [[math.inf]], ["<="], [1.0], [0.0], [1.0])

    def test_with_extra_rows(self):
        base = box_lp()
        grown = base.with_extra_rows([[1.0, 0.0]], ["<="], [0.25])
        assert base.nrows == 1 and grown.nrows == 2
        sol = solve(grown)
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert sol.x[0] <= 0.25 + 1e-9


    @pytest.mark.parametrize("rows, senses, match", [
        ([[1.0, math.nan]], ["<="], "finite"),
        ([[1.0, math.inf]], ["<="], "finite"),
        ([[1.0, 0.0]], ["<"], "unknown row sense"),
        ([[1.0, 0.0, 0.0]], ["<="], "columns"),
        ([[1.0, 0.0], [0.0, 1.0]], ["<="], "row count"),
    ])
    def test_with_extra_rows_validates_the_appended_rows(self, rows, senses, match):
        with pytest.raises(ValueError, match=match):
            box_lp().with_extra_rows(rows, senses, [0.5] * len(rows))

    def test_with_extra_rows_rejects_a_nonfinite_rhs(self):
        with pytest.raises(ValueError, match="finite"):
            box_lp().with_extra_rows([[1.0, 0.0]], ["<="], [math.inf])

    @pytest.mark.parametrize("rows, senses, rhs, message", [
        ([[1.0, math.nan]], ["<="], [0.5], "row data must be finite"),
        ([[-math.inf, 0.0]], [">="], [0.5], "row data must be finite"),
        ([[1.0, 0.0]], ["<="], [math.nan], "row data must be finite"),
        ([[1.0, 0.0]], ["="], [-math.inf], "row data must be finite"),
        ([[1.0, 0.0, 0.0]], ["<="], [0.5], "rows have 3 columns, objective has 2"),
        ([[1.0, 0.0], [0.0, 1.0]], ["<="], [0.5, 0.5], "row count mismatch between rows, senses and rhs"),
        ([[1.0, 0.0]], ["<="], [0.5, 0.5], "row count mismatch between rows, senses and rhs"),
        ([[1.0, 0.0]], ["=>"], [0.5], "unknown row sense '=>'"),
    ])
    def test_with_extra_rows_raises_the_constructor_error(self, rows, senses, rhs, message):
        base = box_lp()
        before = (base.rows.copy(), base.rhs.copy(), list(base.row_senses))
        with pytest.raises(ValueError) as built:
            LpModel("max", [1.0, 1.0], rows, senses, rhs, [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError) as appended:
            base.with_extra_rows(rows, senses, rhs)
        assert str(appended.value) == str(built.value) == message
        # the parent is unchanged
        assert base.rows.tobytes() == before[0].tobytes() and base.rhs.tobytes() == before[1].tobytes()
        assert base.row_senses == before[2]

    def test_with_extra_rows_matches_the_former_append(self):
        base = box_lp()
        appends = [
            ([[1.0, 0.0]], ["<="], [0.25]),
            (np.array([[0.5, -1.0], [2.0, 1.0]]), (">=", "="), (0.0, 1.5)),
            ([0.0, 3.0], [">="], 1.0),  # one row as a vector, its rhs a scalar
        ]
        for rows, senses, rhs in appends:
            grown = base.with_extra_rows(rows, senses, rhs)
            former = ref.former_with_extra_rows(base, rows, senses, rhs)
            for field in ("objective", "rows", "rhs", "lower", "upper"):
                assert getattr(grown, field).tobytes() == getattr(former, field).tobytes(), field
                assert getattr(grown, field) is not getattr(base, field), field
            assert grown.sense == former.sense and grown.row_senses == former.row_senses
            assert grown.extends(base) and not base.extends(grown)
            assert base.nrows == 1

    def test_with_extra_rows_of_no_rows_is_an_equal_copy(self):
        base = box_lp()
        for rows in ([], np.zeros((0, 2))):
            grown = base.with_extra_rows(rows, [], [])
            assert grown.nrows == base.nrows and grown.rows.shape == (1, 2)
            assert grown.extends(base) and base.extends(grown)
            assert grown.rows is not base.rows and grown.row_senses is not base.row_senses
            assert solve(grown).objective == solve(base).objective


class TestCorner:
    @pytest.mark.parametrize("instance", [
        lambda: BmpInstance(cut_polynomial(harness.pw_graph(20, 0.15, seed=1003, max_weight=1))),
        lambda: BmpInstance(harness.autocorr_polynomial(12, max_lag=2, density=0.2, seed=1004)),
    ], ids=["g05", "autocorr"])
    def test_same_bytes_as_the_former_masks(self, monkeypatch, instance):
        # every corner of a seeded loop, sliced by the sorted nonbasics against the former masks
        corners = []

        def both(sol):
            cp, rp = corner(sol), ref.former_corner(sol)
            for name in ("apex", "columns", "directions", "eta_coef", "eta_off"):
                a, b = getattr(cp, name), getattr(rp, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
            corners.append(cp)
            return cp

        monkeypatch.setattr(simplex, "corner", both)
        report = harness.root_loop(*build_model(instance()), harness.RunConfig(mode="both"))
        assert not report.failed and len(corners) == report.rounds >= 2
        assert any(cp.columns[0] < cp.apex.size <= cp.columns[-1] for cp in corners)  # bound and row rays

    def test_tent_rays(self):
        model = tent_lp()
        sol = solve(model)
        cp = corner(sol)
        assert cp.nrays == 2
        assert np.all(cp.columns >= model.ncols)  # both rays move a slack
        got = {tuple(np.round(d, 12)) for d in cp.directions}
        assert got == {(0.25, -0.5), (-0.25, -0.5)}

    def test_tent_eta_forms(self):
        model = tent_lp()
        sol = solve(model)
        cp = corner(sol)
        for g, h, d in zip(cp.eta_coef, cp.eta_off, cp.directions):
            # eta vanishes at the apex and grows linearly along its own ray
            assert float(g @ cp.apex) + h == pytest.approx(0.0, abs=1e-9)
            for eta in (0.5, 1.0, 3.0):
                z = cp.apex + eta * d
                assert float(g @ z) + h == pytest.approx(eta, abs=1e-9)

    def test_bound_ray_is_unit_direction(self):
        model = LpModel(
            sense="max",
            objective=[-1.0, 1.0],
            rows=[[0.0, 1.0]],
            row_senses=["<="],
            rhs=[1.0],
            lower=[0.0, 0.0],
            upper=[1.0, 5.0],
        )
        sol = solve(model)
        cp = corner(sol)
        (k,) = np.flatnonzero(cp.columns < model.ncols)
        assert cp.directions[k].tolist() == [1.0, 0.0]
        assert float(cp.eta_coef[k] @ cp.apex) + cp.eta_off[k] == 0.0

    def test_at_upper_ray_points_into_box(self):
        model = LpModel(
            sense="max",
            objective=[1.0, 1.0],
            rows=[[1.0, 1.0]],
            row_senses=["<="],
            rhs=[3.0],
            lower=[0.0, 0.0],
            upper=[2.0, 2.0],
        )
        sol = solve(model)
        cp = corner(sol)
        bound_rays = np.flatnonzero(cp.columns < model.ncols)
        assert bound_rays.size == 1
        k = bound_rays[0]
        j = cp.columns[k]
        assert sol.x[j] == pytest.approx(2.0, abs=1e-9)
        assert cp.directions[k, j] == -1.0
        # eta measures distance travelled from the upper bound
        z = cp.apex + 0.75 * cp.directions[k]
        assert float(cp.eta_coef[k] @ z) + cp.eta_off[k] == pytest.approx(0.75, abs=1e-12)

    def test_apex_reproduces_primal(self):
        model = tent_lp()
        sol = solve(model)
        cp = corner(sol)
        assert np.array_equal(cp.apex, sol.x)

    def test_needs_optimal_status(self):
        model = LpModel(
            sense="max", objective=[1.0], rows=[[1.0]], row_senses=[">="],
            rhs=[2.0], lower=[0.0], upper=[1.0],
        )
        sol = solve(model)
        with pytest.raises(ValueError):
            corner(sol)

    def test_fixed_column_contributes_no_ray(self):
        model = LpModel(
            sense="max",
            objective=[1.0, 1.0],
            rows=[[1.0, 1.0]],
            row_senses=["<="],
            rhs=[1.0],
            lower=[0.0, 0.4],
            upper=[1.0, 0.4],
        )
        sol = solve(model)
        cp = corner(sol)
        assert 1 not in cp.columns
        assert cp.nrays == 1  # only the slack of the single row

    def test_free_nonbasic_rejected(self):
        # a free column is refused with the model, so no corner meets one
        with pytest.raises(ValueError, match="finite lower and upper"):
            LpModel(
                sense="max",
                objective=[1.0, 0.0],
                rows=[[1.0, 0.0]],
                row_senses=["<="],
                rhs=[1.0],
                lower=[0.0, -math.inf],
                upper=[1.0, math.inf],
            )

    def test_equality_rows_stay_satisfied_along_rays(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, m = 5, int(rng.integers(2, 5))
            rows = rng.integers(-3, 4, size=(m, n)).astype(float)
            senses = [("<=", ">=", "=")[int(rng.integers(3))] for _ in range(m)]
            x0 = rng.uniform(0, 1, size=n)
            rhs = rows @ x0 + rng.uniform(-0.2, 0.2, size=m)
            model = LpModel(
                sense="max",
                objective=rng.normal(size=n),
                rows=rows,
                row_senses=senses,
                rhs=rhs,
                lower=np.zeros(n),
                upper=np.ones(n),
            )
            sol = solve(model)
            if sol.status != OPTIMAL:
                continue
            cp = corner(sol)
            eq = [i for i, s in enumerate(senses) if s == "="]
            for d in cp.directions:
                for i in eq:
                    assert abs(float(rows[i] @ d)) <= 1e-9

    def test_block_matches_per_ray_loop(self):
        rng = np.random.default_rng(23)
        seen = {"lower": 0, "upper": 0, "slack": 0, "surplus": 0}
        compared = 0
        for _ in range(40):
            n, m = int(rng.integers(3, 8)), int(rng.integers(2, 6))
            rows = rng.integers(-3, 4, size=(m, n)).astype(float)
            senses = [("<=", ">=", "=")[int(rng.integers(3))] for _ in range(m)]
            rhs = rows @ rng.uniform(0, 1, size=n) + rng.uniform(-0.3, 0.3, size=m)
            upper = np.ones(n)
            upper[rng.random(n) < 0.2] = 0.0  # some fixed columns, which give no ray
            model = LpModel("max", rng.normal(size=n), rows, senses, rhs, np.zeros(n), upper)
            sol = solve(model)
            if sol.status != OPTIMAL:
                continue
            cp = corner(sol)
            rays = ref.corner_rays_loop(sol)
            assert cp.columns.tolist() == [j for j, _, _, _ in rays]
            k = len(rays)
            for got, want in (
                (cp.directions, np.array([d for _, d, _, _ in rays]).reshape(k, n)),
                (cp.eta_coef, np.array([g for _, _, g, _ in rays]).reshape(k, n)),
                (cp.eta_off, np.array([h for _, _, _, h in rays])),
            ):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            compared += 1
            for j, _, g, _ in rays:
                if j < n:
                    seen["lower" if g[j] > 0 else "upper"] += 1
                else:
                    seen["surplus" if sol._state.sign[j - n] < 0 else "slack"] += 1
        assert compared >= 20
        assert min(seen.values()) > 0, seen

    def test_apex_is_a_vertex(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, m = 4, 3
            rows = rng.integers(-2, 3, size=(m, n)).astype(float)
            rhs = rows @ rng.uniform(0, 1, size=n)
            model = LpModel(
                sense="max",
                objective=rng.normal(size=n),
                rows=rows,
                row_senses=["<="] * m,
                rhs=rhs,
                lower=np.zeros(n),
                upper=np.ones(n),
            )
            sol = solve(model)
            if sol.status != OPTIMAL:
                continue
            tight = sum(
                1 for i in range(m) if abs(float(rows[i] @ sol.x) - rhs[i]) <= 1e-7
            )
            tight += sum(
                1 for j in range(n) if sol.x[j] <= 1e-7 or sol.x[j] >= 1.0 - 1e-7
            )
            assert tight >= n


class TestAgainstEnumeration:
    def test_random_lps(self):
        rng = np.random.default_rng(13)
        solved = 0
        for _ in range(50):
            n = 5
            m = int(rng.integers(2, 6))
            rows = rng.integers(-4, 5, size=(m, n)).astype(float)
            senses = [("<=", ">=", "=")[int(rng.integers(3))] for _ in range(m)]
            x0 = rng.uniform(0, 1, size=n)
            rhs = rows @ x0 + rng.uniform(-0.5, 0.5, size=m)
            lo = np.zeros(n)
            hi = np.full(n, float(rng.integers(1, 3)))
            c = rng.normal(size=n)
            model = LpModel("max", c, rows, senses, rhs, lo, hi)
            sol = solve(model)
            want = ref.lp_enumerate(c, rows, senses, rhs, lo, hi)
            if want is None:
                assert sol.status == INFEASIBLE
            else:
                assert sol.status == OPTIMAL
                assert sol.objective == pytest.approx(want, abs=1e-8)
                solved += 1
        assert solved >= 10  # the generator must exercise the optimal path


def random_lp(rng, n=5):
    """Boxed LP with <=, >= and = rows around a random interior point."""
    m = int(rng.integers(2, 6))
    rows = rng.integers(-4, 5, size=(m, n)).astype(float)
    senses = [("<=", ">=", "=")[int(rng.integers(3))] for _ in range(m)]
    rhs = rows @ rng.uniform(0, 1, size=n) + rng.uniform(-0.5, 0.5, size=m)
    sense = ("max", "min")[int(rng.integers(2))]
    return LpModel(sense, rng.normal(size=n), rows, senses, rhs, np.zeros(n), np.ones(n))


class TestWarmStart:
    def test_matches_cold_solve_of_the_grown_model(self):
        rng = np.random.default_rng(31)
        compared = infeasible = 0
        for _ in range(60):
            base = random_lp(rng)
            sol = solve(base)
            if sol.status != OPTIMAL:
                continue
            # rows through the optimum, shifted so that most of them cut it off
            k = int(rng.integers(1, 4))
            rows = rng.integers(-3, 4, size=(k, base.ncols)).astype(float)
            senses = [("<=", ">=", "=")[int(j)] for j in rng.integers(3, size=k)]
            shift = rng.uniform(-0.3, 0.6, size=k) * np.where(np.array(senses) == "<=", -1.0, 1.0)
            grown = base.with_extra_rows(rows, senses, rows @ sol.x + shift)
            warm, cold = solve(grown, warm=sol), solve(grown)
            assert warm.status == cold.status
            if warm.status == OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                compared += 1
            else:
                infeasible += 1
        assert compared >= 20 and infeasible >= 1

    def test_from_a_model_without_rows(self):
        model = LpModel("max", [1.0, -1.0], np.zeros((0, 2)), [], [], [0.0, -1.0], [1.0, 2.0])
        sol = solve(model)
        assert sol.iterations == 0 and sol.x.tolist() == [1.0, -1.0]
        grown = model.with_extra_rows([[1.0, 1.0]], ["<="], [-0.5])
        warm = solve(grown, warm=sol)
        assert warm.status == OPTIMAL and warm.iterations == 1
        assert warm.objective == pytest.approx(solve(grown).objective, abs=1e-12)

    def test_no_new_rows_takes_no_pivot(self):
        sol = solve(tent_lp())
        again = solve(tent_lp(), warm=sol)
        assert again.iterations == 0
        assert np.array_equal(again.x, sol.x) and np.array_equal(again.basis, sol.basis)

    def test_cut_row_enters_with_its_surplus_basic(self):
        model = tent_lp()
        sol = solve(model)
        grown = model.with_extra_rows([[0.0, -1.0]], [">="], [-0.5])  # t <= 0.5 cuts off t = 1
        warm = solve(grown, warm=sol)
        assert warm.status == OPTIMAL and warm.iterations >= 1
        assert warm.objective == pytest.approx(0.5, abs=1e-12)
        assert corner(warm).nrays == 2

    def test_rejects_a_model_that_does_not_extend_the_warm_one(self):
        sol = solve(tent_lp())
        other = tent_lp()
        other.rhs[1] = 3.0
        with pytest.raises(ValueError, match="row prefix"):
            solve(other.with_extra_rows([[1.0, 0.0]], ["<="], [0.5]), warm=sol)
        with pytest.raises(ValueError, match="row prefix"):
            solve(box_lp(), warm=sol)

    def test_rejects_an_infeasible_warm_solution(self):
        model = LpModel("max", [1.0], [[1.0]], [">="], [2.0], [0.0], [1.0])
        sol = solve(model)
        with pytest.raises(ValueError, match="row prefix"):
            solve(model.with_extra_rows([[1.0]], ["<="], [0.5]), warm=sol)


class TestPlacement:
    """``dirn`` is the solver's one record of where each column sits."""

    @staticmethod
    def assert_placement(st):
        fixed = st.lo == st.hi
        assert not st.dirn[st.basis].any() and not st.dirn[fixed].any()
        movable = ~fixed
        movable[st.basis] = False
        dirn = st.dirn[movable]
        assert set(dirn.tolist()) <= {-1.0, 1.0}
        assert np.array_equal(st.val[movable], np.where(dirn > 0.0, st.lo[movable], st.hi[movable]))

    def test_after_cold_and_warm_solves(self):
        rng = np.random.default_rng(37)
        cold = warm = 0
        for _ in range(40):
            model = random_lp(rng)
            model.upper[rng.random(model.ncols) < 0.2] = 0.0  # fixed columns
            sol = solve(model)
            if sol.status != OPTIMAL:
                continue
            self.assert_placement(sol._state)
            cold += 1
            rows = rng.integers(-3, 4, size=(2, model.ncols)).astype(float)
            grown = model.with_extra_rows(rows, ["<=", ">="], rows @ sol.x + np.array([-0.2, 0.2]))
            sol = solve(grown, warm=sol)
            if sol.status == OPTIMAL:
                self.assert_placement(sol._state)
                warm += 1
        assert cold >= 20 and warm >= 10


class TestImplicitLogicals:
    """The solver without a formed logical block keeps the explicit matrix's bits.

    BLAS rounds a product by its operands' widths and layouts, so implicit
    logical columns could move the pivot path without changing any value
    by more than an ulp.  The traps show once rows with non-dyadic
    coefficients are appended: a g05 LP whose column count is not a
    multiple of 4 puts structural columns in the tail of an unpadded row
    product, a second re-solve extends a non-dyadic inverse (the layout
    trap), and a short refactor interval lets the sign of a zero in an
    entering logical column reach the inverse.
    """

    @staticmethod
    def assert_same_bytes(sol, ref_sol):
        assert sol.status == ref_sol.status == OPTIMAL
        assert sol.iterations == ref_sol.iterations
        assert np.array_equal(sol.basis, ref_sol.basis)
        st, rt = sol._state, ref_sol._state
        for a, b in ((sol.x, ref_sol.x), (st.Binv, rt.Binv), (st.d, rt.d)):
            assert a.tobytes() == b.tobytes()
        cp, rp = corner(sol), corner(ref_sol)
        for name in ("apex", "columns", "directions", "eta_coef", "eta_off"):
            a, b = getattr(cp, name), getattr(rp, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("refactor_every", [simplex.REFACTOR_EVERY, 8])
    def test_cold_and_warm_solves_match_the_explicit_matrix(self, monkeypatch, refactor_every):
        monkeypatch.setattr(simplex, "REFACTOR_EVERY", refactor_every)
        graph = harness.pw_graph(20, 0.15, seed=1001, max_weight=1)
        model, _, _ = build_model(BmpInstance(cut_polynomial(graph)))
        assert model.ncols % 4 != 0
        sol, ref_sol = solve(model), ref.ExplicitLogicalSimplex(model).solve()
        self.assert_same_bytes(sol, ref_sol)
        # two re-solves, each after two rows that the last optimum violates
        rng = np.random.default_rng(4)
        for _ in range(2):
            rows = rng.uniform(0.0, 1.0, size=(2, model.ncols)) * (rng.random((2, model.ncols)) < 0.5)
            model = model.with_extra_rows(rows, ["<=", "<="], rows @ sol.x - 0.1)
            sol, ref_sol = solve(model, warm=sol), ref.ExplicitLogicalSimplex(model, ref_sol._state).solve()
            assert sol.iterations > 0
            self.assert_same_bytes(sol, ref_sol)


class TestCertificate:
    def test_corrupted_reduced_cost_is_caught(self):
        sol = solve(tent_lp())
        st = sol._state
        st._verify()  # the genuine optimum passes
        d = st.cost - (st.cost[st.basis] @ st.Binv) @ st._columns(np.arange(st.N))
        (j,) = np.flatnonzero(st.dirn > 0.0)[:1]
        st.cost[j] -= d[j] + 1.0  # reduced cost -1 at a lower bound: not optimal
        with pytest.raises(NumericError, match="reduced cost"):
            st._verify()

    def test_nonbasic_off_its_bound_is_caught(self):
        sol = solve(tent_lp())
        st = sol._state
        assert st.dirn[2] == 1.0  # the slack of t <= 2 x1, nonbasic at its lower bound
        st.val[2] = 0.1  # feasible, but 0.1 below the optimum
        st._basic_values()
        with pytest.raises(NumericError, match="objective"):
            st._verify()


    @pytest.mark.parametrize("field, match", [("val", "row residual"), ("Binv", "reduced cost")])
    def test_nan_state_is_caught(self, field, match):
        sol = solve(box_lp())
        st = sol._state
        st._verify()
        getattr(st, field)[:] = math.nan  # every check compares with NaN, which no > catches
        with pytest.raises(NumericError, match=match):
            st._verify()


class TestCertificateRetry:
    """A certificate that fails after pivoting is retried once from a refactored inverse."""

    @staticmethod
    def drifting_verify(monkeypatch, failures):
        """Make the first ``failures`` certificates see a basic value drifted by 1e-3."""
        calls = []
        verify = simplex._DualSimplex._verify

        def drifted(self):
            calls.append(self.iterations)
            if len(calls) <= failures:
                self.val[self.basis[0]] += 1e-3
            verify(self)

        monkeypatch.setattr(simplex._DualSimplex, "_verify", drifted)
        return calls

    def model(self):
        model, _, _ = build_model(ref.cut_instance(harness.pw_graph(12, 0.5, seed=3, max_weight=1)))
        return model

    def test_one_failure_recovers(self, monkeypatch):
        model = self.model()
        cold = solve(model)
        calls = self.drifting_verify(monkeypatch, failures=1)
        sol = solve(model)
        assert len(calls) == 2 and calls[0] > 0
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_one_failure_recovers_on_a_warm_solve(self, monkeypatch):
        model = self.model()
        first = solve(model)
        cut = np.zeros(model.ncols)
        cut[-1] = 1.0  # t <= d1 - 1
        grown = model.with_extra_rows([cut], ["<="], [first.objective - 1.0])
        cold = solve(grown)
        calls = self.drifting_verify(monkeypatch, failures=1)
        sol = solve(grown, warm=first)
        assert len(calls) == 2
        assert sol.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_two_failures_raise(self, monkeypatch):
        calls = self.drifting_verify(monkeypatch, failures=2)
        with pytest.raises(NumericError, match="row residual"):
            solve(self.model())
        assert len(calls) == 2


class TestFormerPivotPath:
    """The signed pivot direction and the warm set-up from the prefix keep the former bits.

    ``ref.MaskedPivotSimplex`` builds every row's parts on each solve, grows
    a warm inverse with ``np.block`` and pivots with rising and falling
    masks.  The autocorr model adds a cardinality row, whose logical is
    fixed, and each re-solve appends a >= row as well as a <= row.
    """

    @staticmethod
    def models():
        graph = harness.pw_graph(20, 0.15, seed=1001, max_weight=1)
        poly = harness.autocorr_polynomial(12, max_lag=2, density=0.2, seed=1002)
        built = {
            "g05": build_model(BmpInstance(cut_polynomial(graph))),
            "autocorr": build_model(BmpInstance(poly, cardinality=6)),
        }
        return {name: ref.full_lp(model, lift) for name, (model, _, lift) in built.items()}

    @pytest.mark.parametrize("refactor_every", [simplex.REFACTOR_EVERY, 8])
    @pytest.mark.parametrize("name", ["g05", "autocorr"])
    def test_cold_and_warm_solves_match_the_masked_pivots(self, monkeypatch, refactor_every, name):
        monkeypatch.setattr(simplex, "REFACTOR_EVERY", refactor_every)
        model = self.models()[name]
        if name == "autocorr":
            assert {"=", ">="} <= set(model.row_senses)
        sol, ref_sol = solve(model), ref.MaskedPivotSimplex(model).solve()
        TestImplicitLogicals.assert_same_bytes(sol, ref_sol)
        # two re-solves, each after a <= and a >= row that the last optimum violates
        rng = np.random.default_rng(7)
        for _ in range(2):
            rows = rng.uniform(0.0, 1.0, size=(2, model.ncols)) * (rng.random((2, model.ncols)) < 0.5)
            rhs = rows @ sol.x + np.array([-0.1, 0.1])
            model = model.with_extra_rows(rows, ["<=", ">="], rhs)
            sol, ref_sol = solve(model, warm=sol), ref.MaskedPivotSimplex(model, ref_sol._state).solve()
            assert sol.iterations > 0
            TestImplicitLogicals.assert_same_bytes(sol, ref_sol)
