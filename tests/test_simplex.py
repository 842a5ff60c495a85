import math

import numpy as np
import pytest

import _reference as ref
from subcut import simplex
from subcut.errors import NumericError
from subcut.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
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
        model = LpModel(
            sense="max",
            objective=[1.0],
            rows=np.zeros((0, 1)),
            row_senses=[],
            rhs=[],
            lower=[0.0],
            upper=[math.inf],
        )
        assert solve(model).status == UNBOUNDED

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

    def test_equality_needs_phase_one(self):
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
        with pytest.raises(NumericError):
            solve(tent_lp(), max_iters=1)

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


class TestCorner:
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
        model = LpModel(
            sense="max",
            objective=[1.0, 0.0],
            rows=[[1.0, 0.0]],
            row_senses=["<="],
            rhs=[1.0],
            lower=[0.0, -math.inf],
            upper=[1.0, math.inf],
        )
        sol = solve(model)
        assert sol.status == OPTIMAL
        with pytest.raises(ValueError):
            corner(sol)

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
        codes = {
            "basic": simplex._BASIC, "at_lower": simplex._AT_LOWER, "free": simplex._FREE,
            "struct": simplex._KIND_STRUCT, "slack": simplex._KIND_SLACK,
            "artificial": simplex._KIND_ARTIFICIAL,
        }
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
            rays = ref.corner_rays_loop(sol, codes)
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
                    seen["surplus" if sol._state.kinds[j] == simplex._KIND_SURPLUS else "slack"] += 1
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


def _ratio_cases(st):
    """Ratio-test inputs built around the tie rule.

    Each row's step is a shared base plus a multiple of DEGEN_TOL / 2, so
    many steps lie within DEGEN_TOL of each other; multiples below zero put
    the basic value past its bound (a negative raw step).  Rates include
    +-PIVOT_TOL and its neighbouring doubles, bounds may be infinite on
    either side, and basis indices are distinct but unordered.
    """
    tol = simplex.PIVOT_TOL
    rates = st.sampled_from(
        [0.0, tol, float(np.nextafter(tol, 0.0)), float(np.nextafter(tol, 1.0)),
         2 * tol, 0.25, 1.0, 3.0]
    ).flatmap(lambda r: st.sampled_from([r, -r]))
    values = st.sampled_from([0.0, 0.5, 1.0, -2.0, 3.75]) | st.floats(-4.0, 4.0)

    @st.composite
    def cases(draw):
        m = draw(st.integers(1, 20))
        base = draw(st.sampled_from([0.0, 0.3, 1.0]))
        rate = np.empty(m)
        bvals = np.empty(m)
        blo = np.empty(m)
        bhi = np.empty(m)
        for i in range(m):
            r, v = draw(rates), draw(values)
            step = base + draw(st.integers(-2, 6)) * (simplex.DEGEN_TOL / 2)
            near = v + step * r  # the bound this row runs into
            far_lo = v - draw(st.sampled_from([0.0, 1.0, math.inf]))
            far_hi = v + draw(st.sampled_from([0.0, 1.0, math.inf]))
            rate[i], bvals[i] = r, v
            blo[i] = near if r < 0 else far_lo
            bhi[i] = near if r > 0 else far_hi
            if draw(st.integers(0, 5)) == 0:  # the binding bound is infinite
                if r < 0:
                    blo[i] = -math.inf
                else:
                    bhi[i] = math.inf
        basis = np.array(draw(st.lists(st.integers(0, 60), min_size=m, max_size=m, unique=True)))
        return rate, bvals, blo, bhi, basis

    return cases()


class TestRatioTest:
    def test_matches_sequential_rule(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(_ratio_cases(hypothesis.strategies))
        def check(case):
            got = simplex._ratio_test(*case)
            want = ref.ratio_test_sequential(
                *case, simplex.PIVOT_TOL, simplex.DEGEN_TOL, simplex._AT_UPPER, simplex._AT_LOWER
            )
            assert float(got[0]).hex() == float(want[0]).hex()  # same double, signed zero too
            assert got[1:] == (int(want[1]), want[2])

        check()

    def test_tie_goes_to_lower_column(self):
        # the two rows stop 5e-11 apart, within DEGEN_TOL; row 1's basic column is lower
        rate = np.array([1.0, -1.0])
        got = simplex._ratio_test(
            rate, np.zeros(2), np.array([-1.0, -1.0 + 5e-11]), np.array([1.0, 1.0]), np.array([7, 3])
        )
        assert got == (1.0 - 5e-11, 1, simplex._AT_LOWER)

