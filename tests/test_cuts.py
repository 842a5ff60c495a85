import logging
import math

import numpy as np
import pytest

import _reference as ref
from subcut import cuts
from subcut.cuts import (
    EFFICACY_MIN,
    IntersectionCut,
    ZetaFunction,
    gradient_cut,
    intersection_cut,
    step_length,
    validate_cut_bruteforce,
)
from subcut.errors import CapacityError, SeparationBudget
from subcut.harness import pw_graph
from subcut.models import LiftMap, build_maxcut_model, project_corner
from subcut.oracles import (
    Graph,
    MultilinearFunction,
    SSFunction,
    cut_oracle,
    modular_oracle,
    ss_decompose,
    zero_oracle,
)
from subcut.sfree import EnvelopeEpigraph, LiftedSplit, build_reverse_linearized
from subcut.simplex import CornerPolyhedron, corner, solve


@pytest.fixture
def k3_cut():
    return cut_oracle(Graph(3, ref.K3_EDGES))


def make_corner(apex, rays, n):
    """Corner with (direction, eta_coef, eta_off) rays, projected onto x = columns 0..n-1, t = n."""
    apex = np.asarray(apex, dtype=float)
    k = len(rays)
    cp = CornerPolyhedron(
        apex=apex,
        columns=np.arange(k),
        directions=np.array([d for d, _, _ in rays], dtype=float).reshape(k, apex.size),
        eta_coef=np.array([g for _, g, _ in rays], dtype=float).reshape(k, apex.size),
        eta_off=np.array([h for _, _, h in rays], dtype=float),
    )
    return project_corner(cp, plain_lift(n))


def k3_corner(t_ray_sign=-1.0):
    """Apex ((0.5,0.5,0.5), 1.5) with the three coordinate rays and a t ray."""
    rays = [(e, e, -0.5) for e in np.eye(4)[:3]]
    t_dir = np.array([0.0, 0.0, 0.0, t_ray_sign])
    rays.append((t_dir, t_dir, -t_ray_sign * 1.5))
    return make_corner([0.5, 0.5, 0.5, 1.5], rays, 3), plain_lift(3)


def plain_lift(n):
    """Columns x_0..x_{n-1}, then t."""
    return LiftMap(n=n, x_cols=np.arange(n), t_col=n, y_cols={}, ncols=n + 1)


class TestZetaEval:
    def test_along_coordinate_ray(self, k3_cut):
        zf = ZetaFunction(
            EnvelopeEpigraph(k3_cut), np.array([0.5, 0.5, 0.5]), 1.5,
            np.array([1.0, 0.0, 0.0]), 0.0,
        )
        value, slope = zf.eval(0.2)
        assert value == pytest.approx(1.1, abs=1e-12)
        assert slope == pytest.approx(-2.0, abs=1e-12)

    def test_at_origin_matches_margin(self, k3_cut):
        sfree = EnvelopeEpigraph(k3_cut)
        apex_x = np.array([0.5, 0.5, 0.5])
        zf = ZetaFunction(sfree, apex_x, 1.5, np.array([1.0, 0.0, 0.0]), 0.0)
        value, _ = zf.eval(0.0)
        assert value == pytest.approx(1.5, abs=1e-12)
        # intersection_cut hands the apex margin to step_length as zeta(0)
        assert value == sfree.margin(apex_x, 1.5)

    def test_t_recession_direction(self, k3_cut):
        zf = ZetaFunction(
            EnvelopeEpigraph(k3_cut), np.array([0.5, 0.5, 0.5]), 1.5,
            np.zeros(3), 1.0,
        )
        for eta in (0.0, 1.0, 7.5):
            value, slope = zf.eval(eta)
            assert value == pytest.approx(1.5 + eta, abs=1e-12)
            assert slope == pytest.approx(1.0, abs=1e-12)

    def test_concavity_chords(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            edges = [
                (i, j, float(rng.integers(1, 5)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.7
            ]
            if not edges:
                continue
            f = cut_oracle(Graph(n, edges))
            apex_x = rng.uniform(0, 1, size=n)
            zf = ZetaFunction(
                EnvelopeEpigraph(f), apex_x, 10.0, rng.normal(size=n), float(rng.normal()),
            )
            e1, e2, e3 = sorted(rng.uniform(0, 5, size=3))
            if e3 - e1 < 1e-9:
                continue
            lam = (e2 - e1) / (e3 - e1)
            v1, v2, v3 = (zf.eval(e)[0] for e in (e1, e2, e3))
            assert v2 >= (1 - lam) * v1 + lam * v3 - 1e-9


class _Recording:
    """Wraps a zeta function and keeps the (eta, value, slope) trace."""

    def __init__(self, zf):
        self.zf = zf
        self.trace = []

    def eval(self, eta):
        value, slope = self.zf.eval(eta)
        self.trace.append((eta, value, slope))
        return value, slope


class TestStepLength:
    def test_one_newton_step(self, k3_cut):
        zf = ZetaFunction(
            EnvelopeEpigraph(k3_cut), np.array([0.5, 0.5, 0.5]), 1.5,
            np.array([1.0, 0.0, 0.0]), 0.0,
        )
        res = step_length(zf, zf.eval(0.0)[0])
        assert res.eta == pytest.approx(0.75, abs=1e-9)
        assert res.iterations <= 3

    def test_safeguard_returns_infinite(self, k3_cut):
        zf = ZetaFunction(
            EnvelopeEpigraph(k3_cut), np.array([0.5, 0.5, 0.5]), 1.5,
            np.zeros(3), 1.0,
        )
        res = step_length(zf, zf.eval(0.0)[0])
        assert math.isinf(res.eta)
        assert res.iterations == 0

    def test_pure_t_descent(self, k3_cut):
        zf = ZetaFunction(
            EnvelopeEpigraph(k3_cut), np.array([0.5, 0.5, 0.5]), 1.5,
            np.zeros(3), -1.0,
        )
        res = step_length(zf, zf.eval(0.0)[0])
        assert res.eta == pytest.approx(1.5, abs=1e-9)

    def test_doubling_then_newton(self, k3_cut):
        # zeta rises on the first envelope piece, falls on the next: 0.9 - zero at 0.7
        zf = ZetaFunction(
            EnvelopeEpigraph(k3_cut), np.array([0.25, 0.5, 0.5]), 0.9,
            np.array([1.0, 0.0, 0.0]), 0.0,
        )
        rec = _Recording(zf)
        res = step_length(rec, zf.eval(0.0)[0])
        assert res.eta == pytest.approx(0.7, abs=1e-9)
        slopes = [s for _, _, s in rec.trace[1:]]
        assert slopes[0] > 0  # the first move must be a doubling step

    def test_boundary_apex_rejected(self, k3_cut):
        zf = ZetaFunction(
            EnvelopeEpigraph(k3_cut), np.array([1.0, 0.0, 0.0]), 2.0,
            np.array([1.0, 0.0, 0.0]), 0.0,
        )
        with pytest.raises(ValueError):
            step_length(zf, zf.eval(0.0)[0])

    def test_budget_exhausted(self, k3_cut, monkeypatch):
        monkeypatch.setattr(cuts, "NEWTON_MAX_STEPS", 1)
        zf = ZetaFunction(
            EnvelopeEpigraph(k3_cut), np.array([0.5, 0.5, 0.5]), 1.5,
            np.array([1.0, 0.0, 0.0]), 0.0,
        )
        with pytest.raises(SeparationBudget):
            step_length(zf, zf.eval(0.0)[0])

    def test_root_uniqueness_on_examples(self, k3_cut):
        cases = [
            (np.array([1.0, 0.0, 0.0]), 0.0, 1.5, np.array([0.5, 0.5, 0.5])),
            (np.zeros(3), -1.0, 1.5, np.array([0.5, 0.5, 0.5])),
            (np.array([1.0, 0.0, 0.0]), 0.0, 0.9, np.array([0.25, 0.5, 0.5])),
        ]
        for ray_x, ray_t, apex_t, apex_x in cases:
            zf = ZetaFunction(EnvelopeEpigraph(k3_cut), apex_x, apex_t, ray_x, ray_t)
            eta = step_length(zf, zf.eval(0.0)[0]).eta
            assert zf.eval(eta - 1e-4)[0] > 0
            assert zf.eval(eta + 1e-4)[0] < 0

    def test_agreement_with_bisection(self):
        rng = np.random.default_rng(7)
        finite = 0
        for _ in range(60):
            n = int(rng.integers(2, 6))
            edges = [
                (i, j, float(rng.integers(1, 5)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.7
            ]
            if not edges:
                continue
            f = cut_oracle(Graph(n, edges))
            apex_x = rng.uniform(0, 1, size=n)
            sfree = EnvelopeEpigraph(f)
            margin = sfree.margin(apex_x, 0.0)
            apex_t = -margin + float(rng.uniform(0.2, 2.0))  # force strict interiority
            zf = ZetaFunction(sfree, apex_x, apex_t, rng.normal(size=n), float(rng.normal()))
            res = step_length(zf, zf.eval(0.0)[0])
            if math.isinf(res.eta):
                continue
            finite += 1
            want = ref.bisect_root(lambda e: zf.eval(e)[0], 0.0, 1e9, tol=1e-12)
            assert res.eta == pytest.approx(want, abs=1e-9)
            # weak two-sided uniqueness at the returned root
            assert zf.eval(max(res.eta - 1e-4, 0.0))[0] >= -1e-9
            assert zf.eval(res.eta + 1e-4)[0] <= 1e-9
        assert finite >= 20

    def test_newton_monotone_after_first_descent(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 5))
            edges = [
                (i, j, float(rng.integers(1, 4)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.8
            ]
            if not edges:
                continue
            f = cut_oracle(Graph(n, edges))
            sfree = EnvelopeEpigraph(f)
            apex_x = rng.uniform(0, 1, size=n)
            apex_t = -sfree.margin(apex_x, 0.0) + 1.0
            zf = ZetaFunction(sfree, apex_x, apex_t, rng.normal(size=n), -abs(rng.normal()) - 0.1)
            rec = _Recording(zf)
            try:
                res = step_length(rec, zf.eval(0.0)[0])
            except SeparationBudget:
                continue
            if math.isinf(res.eta):
                continue
            loop = rec.trace[1:]  # drop the safeguard probe
            first = next((k for k, (_, v, s) in enumerate(loop) if s < 0 and abs(v) > 1e-9), None)
            if first is None:
                continue
            tail = [v for _, v, _ in loop[first + 1 :]]
            assert all(v <= 1e-9 for v in tail)
            assert all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))
            checked += 1
        assert checked >= 10


class TestIntersectionCut:
    def test_k3_symmetric_corner(self, k3_cut):
        cp, lift = k3_corner()
        cut = intersection_cut(cp, EnvelopeEpigraph(k3_cut))
        assert cut is not None
        assert cut.steps == pytest.approx([0.75, 0.75, 0.75, 1.5], abs=1e-9)
        assert cut.coef == pytest.approx([4 / 3, 4 / 3, 4 / 3, -2 / 3], abs=1e-9)
        assert cut.rhs == pytest.approx(2.0, abs=1e-9)
        # multiplier form at the feasible point ((1,1,1), 0): sum eta_j / eta*_j = 3
        z = np.array([1.0, 1.0, 1.0, 0.0])
        lhs = float(np.sum((cp.eta_coef @ z + cp.eta_off) / cut.steps))
        assert lhs == pytest.approx(3.0, abs=1e-9)
        assert cut.satisfied(z)
        assert cut.efficacy == pytest.approx(1.0 / math.sqrt(52.0 / 9.0), abs=1e-9)
        assert validate_cut_bruteforce(cut, k3_cut, lift, corner=cp)

    def test_corrupted_cut_fails_validation(self, k3_cut):
        cp, lift = k3_corner()
        cut = intersection_cut(cp, EnvelopeEpigraph(k3_cut))
        bad = IntersectionCut(
            coef=cut.coef.copy(), rhs=cut.rhs + 2.5, kind=cut.kind, efficacy=cut.efficacy,
        )
        assert not validate_cut_bruteforce(bad, k3_cut, lift, corner=cp)

    def test_classic_unit_cut(self):
        f = modular_oracle([1.0, 1.0])
        rays = [
            ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.0),
            ([0.0, 1.0, 0.0], [0.0, 1.0, 0.0], 0.0),
        ]
        cp = make_corner([0.0, 0.0, 1.0], rays, 2)
        cut = intersection_cut(cp, EnvelopeEpigraph(f))
        assert cut is not None
        assert cut.steps == pytest.approx([1.0, 1.0], abs=1e-9)
        assert cut.coef == pytest.approx([1.0, 1.0, 0.0], abs=1e-9)
        assert cut.rhs == pytest.approx(1.0, abs=1e-9)

    def test_infinite_ray_contributes_nothing(self, k3_cut):
        cp, _ = k3_corner(t_ray_sign=+1.0)  # t-recession ray never leaves the set
        cut = intersection_cut(cp, EnvelopeEpigraph(k3_cut))
        assert cut is not None
        assert cut.infinite_steps == 1
        assert cut.coef[3] == 0.0

    def test_all_infinite_steps(self, k3_cut):
        rays = [
            ([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0], -1.5),
            # the all-ones x direction is envelope-neutral for a cut function
            ([1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0], -0.5),
        ]
        cp = make_corner([0.5, 0.5, 0.5, 1.5], rays, 3)
        assert intersection_cut(cp, EnvelopeEpigraph(k3_cut)) is None

    def test_non_interior_apex(self, k3_cut):
        cp, _ = k3_corner()
        cp.apex_t = 0.0
        cp.apex[3] = 0.0  # apex now sits below the envelope: exterior
        assert intersection_cut(cp, EnvelopeEpigraph(k3_cut)) is None

    def test_tiny_step_skipped(self, k3_cut):
        cp, _ = k3_corner()
        cp.apex_t = 2e-7  # barely interior; first root lands under the step floor
        cp.apex[3] = 2e-7
        assert intersection_cut(cp, EnvelopeEpigraph(k3_cut)) is None

    def test_efficacy_filter(self, k3_cut, monkeypatch):
        monkeypatch.setattr(cuts, "EFFICACY_MIN", 10.0)
        cp, _ = k3_corner()
        assert intersection_cut(cp, EnvelopeEpigraph(k3_cut)) is None

    def test_dynamic_range_filter(self, k3_cut, monkeypatch):
        monkeypatch.setattr(cuts, "DYNAMIC_RANGE_MAX", 1.5)
        cp, _ = k3_corner()
        assert intersection_cut(cp, EnvelopeEpigraph(k3_cut)) is None

    def test_unprojected_corner_rejected(self, k3_cut):
        cp, _ = k3_corner()
        cp.apex_x = None
        with pytest.raises(ValueError):
            intersection_cut(cp, EnvelopeEpigraph(k3_cut))

    def test_split_cut_through_real_lp(self):
        graph = Graph(3, ref.K3_EDGES)
        model, target, lift = build_maxcut_model(graph)
        sol = solve(model)
        cp = project_corner(corner(sol), lift)
        j = int(np.argmin(np.abs(cp.apex_x - 0.5)))
        cut = intersection_cut(cp, LiftedSplit(j, 3))
        assert cut is not None
        assert validate_cut_bruteforce(cut, target, lift, corner=cp)

    def test_steps_match_fresh_ray_copies(self):
        # each ray's steps must not depend on how the corner block lays out its rows
        for seed in range(1000, 1004):
            model, target, lift = build_maxcut_model(pw_graph(10, 0.5, seed, max_weight=1))
            cp = project_corner(corner(solve(model)), lift)
            sfree = EnvelopeEpigraph(target.f1)
            cut = intersection_cut(cp, sfree)
            assert cut is not None
            margin = sfree.margin(cp.apex_x, cp.apex_t)
            fresh = [
                step_length(ZetaFunction(
                    sfree, cp.apex_x, cp.apex_t, cp.directions[k, lift.x_cols], float(cp.t_dir[k])
                ), margin).eta
                for k in range(cp.nrays)
            ]
            assert np.array(cut.steps).tobytes() == np.array(fresh).tobytes()

    def test_log_line(self, k3_cut, caplog):
        cp, _ = k3_corner()
        with caplog.at_level(logging.INFO, logger="subcut.cuts"):
            intersection_cut(cp, EnvelopeEpigraph(k3_cut))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("CUT ")]
        assert len(lines) == 1
        assert lines[0].startswith("CUT kind=env rays=4 inf_steps=0 efficacy=")
        assert "newton_iters=" in lines[0]

    def test_reverse_linearized_log_line(self, k3_cut, caplog):
        cp, _ = k3_corner()
        ss = SSFunction(k3_cut, modular_oracle([0.1, 0.2, 0.3]), level=1)
        sfree = build_reverse_linearized(ss, cp.apex_x)
        with caplog.at_level(logging.INFO, logger="subcut.cuts"):
            cut = intersection_cut(cp, sfree)
        assert cut is not None and cut.kind == "ss"
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("CUT ")]
        assert len(lines) == 1
        assert lines[0].startswith("CUT kind=ss rays=4 inf_steps=0 efficacy=")

    def test_apex_evaluated_once(self, k3_cut):
        class Counting(EnvelopeEpigraph):
            calls = 0

            def value_and_subgradient(self, x):
                Counting.calls += 1
                return super().value_and_subgradient(x)

        cp, _ = k3_corner()
        cut = intersection_cut(cp, Counting(k3_cut))
        assert cut is not None
        # one apex margin, then per ray the ETA_INF probe and one call per Newton iteration
        assert Counting.calls == 1 + cut.nrays + cut.newton_iters


class TestGradientCut:
    def test_two_variable_example(self):
        poly = MultilinearFunction(2, [(3.0, {0, 1})])
        ss = ss_decompose(poly)
        cut = gradient_cut(ss, [1.0, 1.0], 4.0, plain_lift(2))
        assert cut is not None
        assert cut.kind == "grad"
        assert cut.coef == pytest.approx([0.0, 3.0, -1.0], abs=1e-12)
        assert cut.rhs == 0.0
        # pins gamma against the independent chain construction
        gamma = ref.greedy_sigma(lambda x: -3.0 * x[0] * x[1], [0, 1])
        assert cut.coef[:2] == pytest.approx([-g for g in gamma], abs=1e-12)

    def test_cuts_off_reference_point(self):
        poly = MultilinearFunction(2, [(3.0, {0, 1})])
        ss = ss_decompose(poly)
        cut = gradient_cut(ss, [1.0, 1.0], 4.0, plain_lift(2))
        assert not cut.satisfied([1.0, 1.0, 4.0])
        # but keeps every lifted binary graph point
        for mask in range(4):
            x = [(mask >> i) & 1 for i in range(2)]
            assert cut.satisfied([x[0], x[1], poly.evaluate(x)])

    def test_non_violating_point(self):
        poly = MultilinearFunction(2, [(3.0, {0, 1})])
        ss = ss_decompose(poly)
        assert gradient_cut(ss, [1.0, 1.0], 0.0, plain_lift(2)) is None

    def test_efficacy_filter(self, monkeypatch):
        poly = MultilinearFunction(2, [(3.0, {0, 1})])
        ss = ss_decompose(poly)
        efficacy = gradient_cut(ss, [1.0, 1.0], 4.0, plain_lift(2)).efficacy
        monkeypatch.setattr(cuts, "EFFICACY_MIN", 2.0 * efficacy)
        assert gradient_cut(ss, [1.0, 1.0], 4.0, plain_lift(2)) is None

    def test_zero_function_rejected(self):
        ss = SSFunction(zero_oracle(2), zero_oracle(2), level=0)
        assert gradient_cut(ss, [1.0, 0.5], 0.0, plain_lift(2)) is None

    def test_modular_sign_cut(self):
        c = np.array([2.0, -1.0])
        ss = SSFunction(zero_oracle(2), modular_oracle(c), level=0)
        cut = gradient_cut(ss, [1.0, 0.0], 0.0, plain_lift(2))
        assert cut is not None
        assert cut.coef == pytest.approx([-2.0, 1.0, 0.0], abs=1e-12)
        assert cut.rhs == 0.0

    def test_nonzero_first_part_rejected(self, k3_cut):
        ss = SSFunction(k3_cut, zero_oracle(3), level=1)
        with pytest.raises(ValueError):
            gradient_cut(ss, [0.5, 0.5, 0.5], 0.0, plain_lift(3))

    def test_lift_mapping(self):
        poly = MultilinearFunction(2, [(3.0, {0, 1})])
        ss = ss_decompose(poly)
        lift = LiftMap(n=2, x_cols=np.array([0, 2]), t_col=1, y_cols={}, ncols=4)
        cut = gradient_cut(ss, [1.0, 1.0], 4.0, lift)
        assert cut.coef == pytest.approx([0.0, -1.0, 3.0, 0.0], abs=1e-12)


class TestValidateCut:
    def test_capacity_guard(self):
        n = 13
        lift = plain_lift(n)
        cut = IntersectionCut(coef=np.zeros(n + 1), rhs=0.0, kind="env", efficacy=1.0)
        with pytest.raises(CapacityError):
            validate_cut_bruteforce(cut, modular_oracle(np.ones(n)), lift)

    def test_capacity_checked_before_enumeration(self):
        # n = 15 is past the cube enumeration limit too; the validation
        # guard must answer first, before any value is computed
        n = 15
        lift = plain_lift(n)
        cut = IntersectionCut(coef=np.zeros(n + 1), rhs=0.0, kind="env", efficacy=1.0)
        message = r"cut validation limited to n <= 12, got n = 15"
        with pytest.raises(CapacityError, match=message):
            validate_cut_bruteforce(cut, modular_oracle(np.ones(n)), lift)

    def test_t_interval_matches_ray_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            ncols = int(rng.integers(2, 8))
            t_col = ncols - 1
            z_pts = rng.integers(0, 2, size=(int(rng.integers(1, 40)), ncols)).astype(float)
            z_pts[:, t_col] = 0.0
            rays = []
            for _ in range(int(rng.integers(1, 9))):
                coef = rng.normal(size=ncols)
                coef[t_col] = rng.choice([0.0, 1e-15, coef[t_col]])
                rays.append((np.zeros(ncols), coef, float(rng.normal())))
            cp = make_corner(np.zeros(ncols), rays, ncols - 1)
            lo, hi = cuts._corner_t_interval(z_pts, cp, t_col, 1e-7)
            ref_lo, ref_hi = ref.corner_t_interval_loop(z_pts, cp.eta_coef, cp.eta_off, t_col, 1e-7)
            assert lo == pytest.approx(ref_lo, rel=1e-12, abs=1e-12)
            assert hi == pytest.approx(ref_hi, rel=1e-12, abs=1e-12)

    def test_t_interval_cached_per_target_and_corner(self, k3_cut, monkeypatch):
        intervals = []
        real = cuts._corner_t_interval
        monkeypatch.setattr(cuts, "_corner_t_interval", lambda *a: intervals.append(a[1]) or real(*a))
        cp, lift = k3_corner()
        cut = intersection_cut(cp, EnvelopeEpigraph(k3_cut))
        cache = {}
        assert validate_cut_bruteforce(cut, k3_cut, lift, corner=cp, cubes=cache)
        assert validate_cut_bruteforce(cut, k3_cut, lift, corner=cp, cubes=cache)
        assert len(intervals) == 1 and intervals[0] is cp
        # outside the corner the cut is violated at x = 0, t = 0
        assert not validate_cut_bruteforce(cut, k3_cut, lift, corner=None, cubes=cache)
        twin, _ = k3_corner()  # equal arrays, another object
        assert validate_cut_bruteforce(cut, k3_cut, lift, corner=twin, cubes=cache)
        assert len(intervals) == 3 and intervals[1] is None and intervals[2] is twin

    def test_emitted_cuts_always_validate(self):
        rng = np.random.default_rng(13)
        emitted = 0
        for _ in range(15):
            n = int(rng.integers(3, 6))
            edges = [
                (i, j, float(rng.integers(1, 6)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.7
            ]
            if len(edges) < 2:
                continue
            graph = Graph(n, edges)
            model, target, lift = build_maxcut_model(graph)
            sol = solve(model)
            cp = project_corner(corner(sol), lift)
            if np.all(np.minimum(cp.apex_x, 1 - cp.apex_x) <= 1e-6):
                continue  # already binary, nothing to separate
            cut = intersection_cut(cp, EnvelopeEpigraph(target.f1))
            if cut is None:
                continue
            emitted += 1
            assert cut.efficacy >= EFFICACY_MIN
            assert validate_cut_bruteforce(cut, target, lift, corner=cp)
        assert emitted >= 5
