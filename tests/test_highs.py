"""Differential tests of the simplex against scipy's HiGHS solver."""

import math

import numpy as np
import pytest

import _reference as ref
from subcut import simplex
from subcut.harness import RunConfig, autocorr_polynomial, build_model, pw_graph, root_loop
from subcut.models import BmpInstance
from subcut.simplex import INFEASIBLE, OPTIMAL, LpModel

optimize = pytest.importorskip("scipy.optimize")


def highs(model: LpModel):
    """(status, objective) of the model under HiGHS, in the model's sense."""
    sign = -1.0 if model.sense == "max" else 1.0
    senses = np.array(model.row_senses)
    ub = senses != "="
    flip = np.where(senses[ub] == ">=", -1.0, 1.0)
    eq = senses == "="
    bounds = [
        (None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
        for lo, hi in zip(model.lower, model.upper)
    ]
    res = optimize.linprog(
        sign * model.objective,
        A_ub=flip[:, None] * model.rows[ub] if ub.any() else None,
        b_ub=flip * model.rhs[ub] if ub.any() else None,
        A_eq=model.rows[eq] if eq.any() else None,
        b_eq=model.rhs[eq] if eq.any() else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return INFEASIBLE, None
    assert res.status == 0, res.message
    return OPTIMAL, sign * res.fun


def assert_agrees(model: LpModel) -> str:
    sol = simplex.solve(model)
    status, objective = highs(model)
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.objective == pytest.approx(objective, abs=1e-7)
    return status


def random_boxed_lp(rng, degenerate: bool) -> LpModel:
    """Boxed LP with <=, >= and = rows.

    A degenerate one has every row tight at one binary vertex, plus a
    duplicated row, so many bases describe the same point.
    """
    n = int(rng.integers(4, 13))
    m = int(rng.integers(3, 10))
    rows = rng.integers(-3, 4, size=(m, n)).astype(float)
    senses = [("<=", ">=", "=")[int(k)] for k in rng.integers(3, size=m)]
    upper = rng.integers(1, 4, size=n).astype(float)
    if degenerate:
        vertex = rng.integers(0, 2, size=n) * upper
        rhs = rows @ vertex
        rows = np.vstack([rows, rows[:1]])
        senses.append(senses[0])
        rhs = np.append(rhs, rhs[0])
    else:
        rhs = rows @ (rng.uniform(0, 1, size=n) * upper) + rng.uniform(-0.5, 0.5, size=m)
    sense = ("max", "min")[int(rng.integers(2))]
    return LpModel(sense, rng.normal(size=n), rows, senses, rhs, np.zeros(n), upper)


@pytest.mark.parametrize("degenerate", [False, True], ids=["generic", "degenerate"])
def test_random_boxed_lps(degenerate):
    rng = np.random.default_rng(17 + degenerate)
    solved = 0
    for _ in range(60):
        solved += assert_agrees(random_boxed_lp(rng, degenerate)) == OPTIMAL
    assert solved >= 20  # the generator must exercise the optimal path


@pytest.mark.parametrize(
    "problem, mode",
    [
        (ref.cut_instance(pw_graph(12, 0.5, seed=3, max_weight=1)), "submodular"),
        (BmpInstance(autocorr_polynomial(10, max_lag=3, seed=3)), "both"),
        (ref.cut_instance(pw_graph(20, 0.5, seed=1000, max_weight=1)), "submodular"),
        (BmpInstance(autocorr_polynomial(12, max_lag=2, density=0.2, seed=1000)), "both"),
    ],
    ids=["g05-n12", "autocorr-n10", "g05-n20", "autocorr-n12"],
)
def test_benchmark_models_after_two_rounds(problem, mode, monkeypatch):
    """Every LP of a two-round root loop, the warm re-solves of the cut rows included."""
    solved = []
    solve = simplex.solve

    def recording_solve(model, *args, **kwargs):
        solved.append((model, solve(model, *args, **kwargs)))
        return solved[-1][1]

    monkeypatch.setattr(simplex, "solve", recording_solve)
    model, targets, lift = build_model(problem)
    report = root_loop(model, targets, lift, RunConfig(mode=mode, rounds=2))
    monkeypatch.undo()
    assert report.rounds == 2 and not report.failed
    assert len(solved) == 3 and solved[-1][0].nrows > solved[0][0].nrows
    for model, sol in solved:
        status, objective = highs(model)
        assert sol.status == status == OPTIMAL
        assert sol.objective == pytest.approx(objective, abs=1e-7)
        assert simplex.solve(model).objective == pytest.approx(sol.objective, abs=1e-9)
