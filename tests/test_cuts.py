import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest

import _reference as ref
from _covers import three_chain_relaxation
from subcut import cuts, harness, models, oracles, sfree
from subcut.cuts import (
    EFFICACY_MIN,
    CutValidator,
    IntersectionCut,
    gradient_cut,
    intersection_cut,
    step_length,
    validate_cut_bruteforce,
)
from subcut.errors import CapacityError
from subcut.harness import RunConfig, autocorr_polynomial, build_model, pw_graph, split_selector
from subcut.models import BmpInstance, LiftMap, project_corner
from subcut.oracles import Graph, MultilinearFunction, SSFunction, cut_polynomial, ss_decompose
from subcut.sfree import EnvelopeEpigraph, LiftedSplit, build_reverse_linearized
from subcut.simplex import CornerPolyhedron, corner, solve


@pytest.fixture
def k3_cut():
    return cut_polynomial(Graph(3, ref.K3_EDGES))


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


def plain_lift(n, instance=None):
    """Columns x_0..x_{n-1}, then t."""
    return LiftMap(n=n, x_cols=np.arange(n), t_col=n, y_cols={}, ncols=n + 1, instance=instance)


def k3_instance():
    return ref.cut_instance(Graph(3, ref.K3_EDGES))


def validate(cut, model, lift):
    """The cut checked against the lift's instance, t bounded below as in the model."""
    return validate_cut_bruteforce(cut, CutValidator(lift, model.lower[lift.t_col]))


def f_on_cube(poly):
    return ref.poly_values(poly.terms, np.arange(1 << poly.n))


def emitted_cuts(monkeypatch):
    """A runner of root_loop with validation on that returns its (cut, corner) pairs."""
    corners, seen = [], []
    project, check = harness.project_corner, harness.validate_cut_bruteforce
    monkeypatch.setattr(harness, "project_corner",
                        lambda cp, lift: corners.append(project(cp, lift)) or corners[-1])
    monkeypatch.setattr(harness, "validate_cut_bruteforce",
                        lambda cut, *args: seen.append((cut, corners[-1])) or check(cut, *args))

    def run(model, targets, lift, mode, rounds=10):
        seen.clear()
        harness.root_loop(model, targets, lift, RunConfig(mode=mode, rounds=rounds, validate_cuts="on"))
        return list(seen)

    return run


def residual_at(cut, lift, lower_t, mask):
    """coef.z - rhs at the binary point ``mask``, lifted exactly with the worse end of t."""
    masks = np.array([mask])
    a_t = cut.coef[lift.t_col]
    t = ref.poly_values(lift.instance.objective.terms, masks)[0] if a_t < 0 else lower_t
    return float(ref.lifted_points(lift, masks)[0] @ cut.coef) + a_t * t - cut.rhs


def feasible_at(instance, mask):
    masks = np.array([mask])
    ok = all(ref.poly_values(c.terms, masks)[0] >= 0.0 for c in instance.constraints)
    return ok and instance.cardinality in (None, int(mask).bit_count())


def assert_matches_least_residuals(found, lift, lower_t):
    """The cuts, then each with its rhs raised past its least residual, through one
    validator as a run uses it: verdicts equal, residuals within 1e-9, and the
    reported point feasible and at the least residual."""
    least, _ = ref.least_residuals([c.coef for c in found], [c.rhs for c in found], lift, lower_t)
    raised = [dataclasses.replace(c, rhs=c.rhs + low + 1e-3 * (1.0 + abs(c.rhs))) for c, low in zip(found, least)]
    least_raised, _ = ref.least_residuals([c.coef for c in raised], [c.rhs for c in raised], lift, lower_t)
    validator = CutValidator(lift, lower_t)
    for cut, low in zip(found + raised, np.concatenate([least, least_raised])):
        check = validate_cut_bruteforce(cut, validator)
        assert bool(check) == bool(low >= -cuts.CUT_TOL)
        assert check.residual == pytest.approx(low, abs=1e-9)
        assert feasible_at(lift.instance, check.mask)
        assert residual_at(cut, lift, lower_t, check.mask) == pytest.approx(low, abs=1e-9)
    assert not any(validate_cut_bruteforce(cut, validator) for cut in raised)


@dataclasses.dataclass
class Ray:
    """One ray against one set, through the reference zeta and Newton search on one-row blocks."""

    sfree: object
    apex_x: np.ndarray
    apex_t: float
    ray_x: np.ndarray
    ray_t: float

    def zeta(self, eta):
        zeta, slope = ref.zeta_slope(self.sfree, self.apex_x, self.apex_t, np.array([eta]), self.ray_x[None],
                                     np.array([self.ray_t]))
        return float(zeta[0]), float(slope[0])

    def step(self):
        return step_length(ref.newton_steps(self.sfree, self.apex_x, self.apex_t, self.ray_x[None],
                                            np.array([self.ray_t])), 0)


def record_search(monkeypatch) -> list:
    """The (eta, zeta, slope) of every ray the reference Newton search evaluates, in order."""
    trace = []
    evaluate = ref.zeta_slope

    def recorded(sfree, apex_x, apex_t, eta, x_dir, t_dir):
        zeta, slope = evaluate(sfree, apex_x, apex_t, eta, x_dir, t_dir)
        trace.extend(zip(eta.tolist(), zeta.tolist(), slope.tolist()))
        return zeta, slope

    monkeypatch.setattr(ref, "zeta_slope", recorded)
    return trace


class TestZetaEval:
    def test_along_coordinate_ray(self, k3_cut):
        ray = Ray(
            EnvelopeEpigraph(k3_cut), np.array([0.5, 0.5, 0.5]), 1.5,
            np.array([1.0, 0.0, 0.0]), 0.0,
        )
        value, slope = ray.zeta(0.2)
        assert value == pytest.approx(1.1, abs=1e-12)
        assert slope == pytest.approx(-2.0, abs=1e-12)

    def test_at_origin_matches_margin(self, k3_cut):
        sfree = EnvelopeEpigraph(k3_cut)
        apex_x = np.array([0.5, 0.5, 0.5])
        ray = Ray(sfree, apex_x, 1.5, np.array([1.0, 0.0, 0.0]), 0.0)
        value, _ = ray.zeta(0.0)
        assert value == pytest.approx(1.5, abs=1e-12)
        # intersection_cut tests the apex margin as zeta(0) of every ray
        assert value == ref.margin(sfree, apex_x, 1.5)

    def test_point_is_the_plain_formula(self):
        # a row of a block is the 1-D product of its ray
        rng = np.random.default_rng(5)
        f = cut_polynomial(pw_graph(12, 0.5, 3))
        ss = SSFunction(f, ref.modular(rng.normal(size=12)), level=1)
        for sfree in (EnvelopeEpigraph(f), build_reverse_linearized(ss, rng.uniform(size=12)), LiftedSplit(4, 12)):
            for _ in range(20):
                apex_x, ray_x = rng.uniform(size=12), rng.normal(size=12)
                apex_t, ray_t, eta = rng.normal(size=3).tolist()
                value, grad = sfree.value_and_subgradient(apex_x + eta * ray_x)
                lvl = sfree.level
                want = (lvl * (apex_t + eta * ray_t) - value, lvl * ray_t - float(grad @ ray_x))
                assert Ray(sfree, apex_x, apex_t, ray_x, ray_t).zeta(eta) == want

    def test_t_recession_direction(self, k3_cut):
        ray = Ray(
            EnvelopeEpigraph(k3_cut), np.array([0.5, 0.5, 0.5]), 1.5,
            np.zeros(3), 1.0,
        )
        for eta in (0.0, 1.0, 7.5):
            value, slope = ray.zeta(eta)
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
            f = cut_polynomial(Graph(n, edges))
            apex_x = rng.uniform(0, 1, size=n)
            ray = Ray(
                EnvelopeEpigraph(f), apex_x, 10.0, rng.normal(size=n), float(rng.normal()),
            )
            e1, e2, e3 = sorted(rng.uniform(0, 5, size=3))
            if e3 - e1 < 1e-9:
                continue
            lam = (e2 - e1) / (e3 - e1)
            v1, v2, v3 = (ray.zeta(e)[0] for e in (e1, e2, e3))
            assert v2 >= (1 - lam) * v1 + lam * v3 - 1e-9


class TestStepLength:
    def test_one_newton_step(self, k3_cut):
        ray = Ray(
            EnvelopeEpigraph(k3_cut), np.array([0.5, 0.5, 0.5]), 1.5,
            np.array([1.0, 0.0, 0.0]), 0.0,
        )
        res = ray.step()
        assert res.eta == pytest.approx(0.75, abs=1e-9)
        assert res.iterations <= 3

    def test_safeguard_returns_infinite(self, k3_cut):
        ray = Ray(
            EnvelopeEpigraph(k3_cut), np.array([0.5, 0.5, 0.5]), 1.5,
            np.zeros(3), 1.0,
        )
        res = ray.step()
        assert math.isinf(res.eta)
        assert res.iterations == 0

    def test_pure_t_descent(self, k3_cut):
        ray = Ray(
            EnvelopeEpigraph(k3_cut), np.array([0.5, 0.5, 0.5]), 1.5,
            np.zeros(3), -1.0,
        )
        res = ray.step()
        assert res.eta == pytest.approx(1.5, abs=1e-9)

    def test_doubling_then_newton(self, k3_cut, monkeypatch):
        # zeta rises on the first envelope piece, falls on the next: 0.9 - zero at 0.7
        ray = Ray(
            EnvelopeEpigraph(k3_cut), np.array([0.25, 0.5, 0.5]), 0.9,
            np.array([1.0, 0.0, 0.0]), 0.0,
        )
        trace = record_search(monkeypatch)
        res = ray.step()
        assert res.eta == pytest.approx(0.7, abs=1e-9)
        # the apex, the safeguard probe, then the search
        assert [eta for eta, _, _ in trace[:4]] == [0.0, cuts.ETA_INF, ref.NEWTON_START, 2 * ref.NEWTON_START]
        slopes = [s for _, _, s in trace[2:]]
        assert slopes[0] > 0  # the first move must be a doubling step
        assert len(trace) == res.iterations + 2

    def test_boundary_apex_rejected(self, k3_cut, monkeypatch):
        # an apex on the boundary has no positive margin: the apex is the only
        # evaluation, and no ray's step is read; the reference Newton search
        # evaluates it in its first block and stops there
        cp = make_corner([1.0, 0.0, 0.0, 2.0], [(e, e, 0.0) for e in np.eye(4)[:3]], 3)
        sfree = EnvelopeEpigraph(k3_cut)
        assert ref.margin(sfree, cp.apex_x, cp.apex_t) == 0.0
        shapes = recorded_shapes(sfree)
        calls = []
        read = cuts.step_length
        monkeypatch.setattr(cuts, "step_length", lambda search, k: calls.append(k) or read(search, k))
        assert intersection_cut(cp, sfree) is None
        assert shapes == [(3,)]
        assert calls == []
        shapes.clear()
        assert ref.newton_steps(sfree, cp.apex_x, cp.apex_t, cp.x_dir, cp.t_dir) is None
        assert shapes == [(2 * 3 + 1, 3)]

    def test_cap_takes_the_last_point_inside(self, monkeypatch):
        # cut short, the ray's step is the largest eta it evaluated with zeta > 0
        k4 = cut_polynomial(Graph(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]))
        ray = Ray(
            EnvelopeEpigraph(k4), np.array([0.3, 0.5, 0.5, 0.6]), 6.0,
            np.array([1.0, 0.5, 0.25, 0.125]), 0.0,
        )
        assert ray.step().iterations == 4
        trace = record_search(monkeypatch)
        for cap in (1, 2, 3):
            monkeypatch.setattr(ref, "NEWTON_MAX_STEPS", cap)
            trace.clear()
            res = ray.step()
            assert res.iterations == cap and len(trace) == cap + 2  # the apex and the ETA_INF probe
            assert res.eta == max(eta for eta, zeta, _ in trace[2:] if zeta > 0.0)
            assert ray.zeta(res.eta)[0] > ref.ROOT_TOL

    def test_root_uniqueness_on_examples(self, k3_cut):
        cases = [
            (np.array([1.0, 0.0, 0.0]), 0.0, 1.5, np.array([0.5, 0.5, 0.5])),
            (np.zeros(3), -1.0, 1.5, np.array([0.5, 0.5, 0.5])),
            (np.array([1.0, 0.0, 0.0]), 0.0, 0.9, np.array([0.25, 0.5, 0.5])),
        ]
        for ray_x, ray_t, apex_t, apex_x in cases:
            ray = Ray(EnvelopeEpigraph(k3_cut), apex_x, apex_t, ray_x, ray_t)
            eta = ray.step().eta
            assert ray.zeta(eta - 1e-4)[0] > 0
            assert ray.zeta(eta + 1e-4)[0] < 0

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
            f = cut_polynomial(Graph(n, edges))
            apex_x = rng.uniform(0, 1, size=n)
            sfree = EnvelopeEpigraph(f)
            margin = ref.margin(sfree, apex_x, 0.0)
            apex_t = -margin + float(rng.uniform(0.2, 2.0))  # force strict interiority
            ray = Ray(sfree, apex_x, apex_t, rng.normal(size=n), float(rng.normal()))
            res = ray.step()
            if math.isinf(res.eta):
                continue
            finite += 1
            want = ref.bisect_root(lambda e: ray.zeta(e)[0], 0.0, 1e9, tol=1e-12)
            assert res.eta == pytest.approx(want, abs=1e-9)
            # weak two-sided uniqueness at the returned root
            assert ray.zeta(max(res.eta - 1e-4, 0.0))[0] >= -1e-9
            assert ray.zeta(res.eta + 1e-4)[0] <= 1e-9
        assert finite >= 20

    def test_newton_monotone_after_first_descent(self, monkeypatch):
        rng = np.random.default_rng(11)
        trace = record_search(monkeypatch)
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
            f = cut_polynomial(Graph(n, edges))
            sfree = EnvelopeEpigraph(f)
            apex_x = rng.uniform(0, 1, size=n)
            apex_t = -ref.margin(sfree, apex_x, 0.0) + 1.0
            ray = Ray(sfree, apex_x, apex_t, rng.normal(size=n), -abs(rng.normal()) - 0.1)
            trace.clear()
            res = ray.step()
            if math.isinf(res.eta):
                continue
            loop = trace[2:]  # drop the apex and the safeguard probe
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
        assert cut.rhs - cut.coef @ z <= cuts.CUT_TOL
        assert cut.efficacy == pytest.approx(1.0 / math.sqrt(52.0 / 9.0), abs=1e-9)
        values = f_on_cube(k3_instance().objective)
        assert ref.validate_cut_in_corner(cut.coef, cut.rhs, values, 1, lift, cp, cuts.CUT_TOL)
        # the hand-made corner (x >= 0.5) leaves out x = 0, t = 0, which the cut
        # violates; every LP of the instance keeps that point, so no LP corner would
        check = validate_cut_bruteforce(cut, CutValidator(plain_lift(3, k3_instance()), -6.0))
        assert not check
        assert check.mask == 0 and check.residual == pytest.approx(-2.0, abs=1e-9)

    def test_corrupted_cut_fails_validation(self, k3_cut):
        model, _, lift = build_model(k3_instance())
        cp = project_corner(corner(solve(model)), lift)
        cut = intersection_cut(cp, EnvelopeEpigraph(k3_cut))
        assert validate(cut, model, lift)
        bad = IntersectionCut(
            coef=cut.coef.copy(), rhs=cut.rhs + 2.5, kind=cut.kind, efficacy=cut.efficacy,
        )
        check = validate(bad, model, lift)
        assert not check
        assert check.residual == pytest.approx(validate(cut, model, lift).residual - 2.5, abs=1e-9)
        values = f_on_cube(lift.instance.objective)
        assert not ref.validate_cut_in_corner(bad.coef, bad.rhs, values, 1, lift, cp, cuts.CUT_TOL)

    def test_classic_unit_cut(self):
        f = ref.modular([1.0, 1.0])
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
        model, _, lift = build_model(k3_instance())
        sol = solve(model)
        cp = project_corner(corner(sol), lift)
        j = int(np.argmin(np.abs(cp.apex_x - 0.5)))
        cut = intersection_cut(cp, LiftedSplit(j, 3))
        assert cut is not None
        assert validate(cut, model, lift)

    def test_steps_match_fresh_ray_copies(self):
        # each ray's steps must depend neither on how the corner block lays out its
        # rows nor on the rounds that evaluate all rays at once: the lockstep search
        # gives the scalar one-point-at-a-time search's steps, byte for byte
        kinds = set()
        for seed in range(1000, 1004):
            for problem in (ref.cut_instance(pw_graph(10, 0.5, seed, max_weight=1)),
                            BmpInstance(autocorr_polynomial(10, 3, 0.5, seed))):
                model, targets, lift = build_model(problem)
                cp = project_corner(corner(solve(model)), lift)
                for sfree in (build_reverse_linearized(targets[0], cp.apex_x),
                              LiftedSplit(split_selector(cp.apex_x), lift.n)):
                    search = ref.newton_steps(sfree, cp.apex_x, cp.apex_t, cp.x_dir, cp.t_dir)
                    fresh = [
                        ref.newton_step_length(
                            sfree, cp.apex_x, cp.apex_t, cp.directions[k, lift.x_cols], float(cp.t_dir[k]))
                        for k in range(cp.nrays)
                    ]
                    assert np.array(search.eta).tobytes() == np.array([eta for eta, _ in fresh]).tobytes()
                    assert search.iterations == [it for _, it in fresh]
                    cut = intersection_cut(cp, sfree)
                    assert cut is not None
                    kinds.add(cut.kind)
                    # the block reduction adds the rays' terms in the loop's order
                    coef, rhs = ref.cut_from_steps_loop(cp, cut.steps)
                    assert cut.coef.tobytes() == coef.tobytes() and cut.rhs == rhs
        assert kinds == {"env", "ss", "split"}

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
        ss = SSFunction(k3_cut, ref.modular([0.1, 0.2, 0.3]), level=1)
        sfree = build_reverse_linearized(ss, cp.apex_x)
        with caplog.at_level(logging.INFO, logger="subcut.cuts"):
            cut = intersection_cut(cp, sfree)
        assert cut is not None and cut.kind == "ss"
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("CUT ")]
        assert len(lines) == 1
        assert lines[0].startswith("CUT kind=ss rays=4 inf_steps=0 efficacy=")

    def test_apex_evaluated_once(self, k3_cut):
        split_cp, split, _ = multi_round_split()
        for cp, sfree in ((k3_corner()[0], EnvelopeEpigraph(k3_cut)), (split_cp, split)):
            n = cp.apex_x.size
            shapes = recorded_shapes(sfree)
            # a computed step evaluates the set at the apex alone
            cut = intersection_cut(cp, sfree)
            assert cut is not None and cut.newton_iters == 0
            assert shapes == [(n,)]
            shapes.clear()
            search = ref.newton_steps(sfree, cp.apex_x, cp.apex_t, cp.x_dir, cp.t_dir)
            finite = int(np.isfinite(search.eta).sum())
            # one block holding the apex and the ETA_INF and NEWTON_START probes of
            # every ray, then one block per round over the rays still searching
            assert shapes[:1] == [(2 * cp.nrays + 1, n)]
            rounds = [rows for rows, _ in shapes[1:]]
            assert shapes[1:] == [(rows, n) for rows in rounds]
            assert all(b <= a for a, b in zip(rounds, rounds[1:]))
            assert sum(rounds) == sum(search.iterations) - finite
        assert len(rounds) > 1  # the split corner's rays stop in different rounds

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_cap_leaves_every_unfinished_ray_inside(self, monkeypatch, searches_without_root, cap):
        # a ray cut short by the cap takes a point where zeta > 0, so every cut stays valid
        monkeypatch.setattr(ref, "NEWTON_MAX_STEPS", cap)
        unfinished = emitted = 0
        for cp, free, validator in [multi_round_split(), *searches_without_root]:
            shapes = recorded_shapes(free)
            search = ref.newton_steps(free, cp.apex_x, cp.apex_t, cp.x_dir, cp.t_dir)
            # the probe block is the first evaluation, and at most cap - 1 rounds follow it
            assert len(shapes) <= cap
            eta = np.array(search.eta)
            finite = np.isfinite(eta)
            zeta, _ = ref.zeta_slope(free, cp.apex_x, cp.apex_t, eta[finite], cp.x_dir[finite], cp.t_dir[finite])
            short = (np.array(search.iterations)[finite] == cap) & (np.abs(zeta) > ref.ROOT_TOL)
            assert (zeta[short] > 0.0).all(), free.kind
            unfinished += short.sum()
            cut = intersection_cut(cp, free)
            if cut is not None:
                emitted += 1
                assert validate_cut_bruteforce(cut, validator), free.kind
        assert unfinished and emitted


def recorded_shapes(sfree) -> list:
    """The shape of the points of every later ``value_and_subgradient`` call of ``sfree``."""
    shapes = []
    evaluate = sfree.value_and_subgradient
    sfree.value_and_subgradient = lambda x: shapes.append(np.shape(x)) or evaluate(x)
    return shapes


def multi_round_split():
    """First LP corner of an autocorr n=10 instance, a split whose rays take up to seven steps,
    and the instance's cut validator."""
    model, _, lift = build_model(BmpInstance(autocorr_polynomial(10, 3, 0.5, 1001)))
    cp = project_corner(corner(solve(model)), lift)
    return cp, LiftedSplit(split_selector(cp.apex_x), lift.n), CutValidator(lift, model.lower[lift.t_col])


def non_integer_separations() -> list:
    """The (corner, free set) pairs that root loops on non-integer coefficients separate.

    A graph with non-integer weights under ``submodular`` gives env sets, and
    a polynomial with non-integer coefficients under ``both`` gives split and
    ss sets, on the corners of four rounds each.
    """
    rng = np.random.default_rng(11)
    base = autocorr_polynomial(10, max_lag=3, density=0.6, seed=2)
    poly = MultilinearFunction(base.n, [(a * rng.uniform(0.3, 1.7), s) for a, s in base.terms])
    graph = pw_graph(12, 0.4, seed=3, max_weight=1)
    graph = Graph(12, [(i, j, w * rng.uniform(0.3, 1.7)) for i, j, w in graph.edges])
    calls = loop_separations(ref.cut_instance(graph), "submodular", 4)
    calls += loop_separations(BmpInstance(poly), "both", 4)
    assert {free.kind for _, free in calls} == {"env", "ss", "split"}
    return calls


def loop_separations(instance, mode: str, rounds: int) -> list:
    """The (corner, free set) pairs a root loop on ``instance`` separates, in round order."""
    calls = []
    separate = harness.intersection_cut
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "intersection_cut", lambda cp, free: calls.append((cp, free)) or separate(cp, free))
        harness.root_loop(*build_model(instance), RunConfig(mode=mode, rounds=rounds, validate_cuts="off"))
    return calls


def counted_searches(monkeypatch) -> list:
    """A list that grows by one entry per ``zeta_slope`` block of the reference Newton searches."""
    blocks = []
    evaluate = ref.zeta_slope
    monkeypatch.setattr(ref, "zeta_slope", lambda *args: blocks.append(len(args[3])) or evaluate(*args))
    return blocks


class TestFormerSeparationPath:
    """A concatenated probe block, list results and the apex row keep the former
    step search's and separation path's bits."""

    @pytest.fixture(scope="class")
    def separations(self):
        return non_integer_separations()

    @pytest.mark.parametrize("cap", [ref.NEWTON_MAX_STEPS, 2, 1])
    def test_step_search(self, monkeypatch, separations, cap):
        # every ray the former search roots keeps its step and count; a ray it
        # leaves without a root within the cap is counted to the cap here too
        monkeypatch.setattr(ref, "NEWTON_MAX_STEPS", cap)
        unrooted = 0
        for cp, free in separations:
            search = ref.newton_steps(free, cp.apex_x, cp.apex_t, cp.x_dir, cp.t_dir)
            eta, iterations, exhausted = ref.newton_steps_tiled(free, cp.apex_x, cp.apex_t, cp.x_dir, cp.t_dir)
            rooted = ~exhausted
            assert np.array(search.eta)[rooted].tobytes() == eta[rooted].tobytes(), free.kind
            assert search.iterations == iterations.tolist(), free.kind
            unrooted += exhausted.sum()
        assert (unrooted > 0) == (cap < 3)

    def test_cuts_match_the_former_path(self, monkeypatch, separations):
        # on the Newton steps, the apex row and the rhs reduce give the former margin
        # check's, rhs loop's and full-budget search's cuts, byte for byte
        monkeypatch.setattr(cuts, "ray_steps", ref.newton_steps)
        for cp, free in separations:
            cut, former = intersection_cut(cp, free), ref.former_intersection_cut(cp, free)
            assert cut is not None and former is not None, free.kind
            assert cut.coef.tobytes() == former.coef.tobytes(), free.kind
            assert np.array([cut.rhs, cut.efficacy]).tobytes() == np.array([former.rhs, former.efficacy]).tobytes()
            assert np.array(cut.steps).tobytes() == np.array(former.steps).tobytes()
            assert (cut.kind, cut.newton_iters, cut.infinite_steps) == (
                former.kind, former.newton_iters, former.infinite_steps)

    @pytest.mark.parametrize("budget", [ref.NEWTON_MAX_STEPS, 2, 1])
    def test_one_step_length_call_per_ray_up_to_the_first_failure(self, monkeypatch, separations, budget):
        # on the reference Newton steps: no search ends without a step, so rays fail
        # only below the floor, raised here to 1
        monkeypatch.setattr(ref, "NEWTON_MAX_STEPS", budget)
        monkeypatch.setattr(cuts, "ray_steps", ref.newton_steps)
        monkeypatch.setattr(cuts, "MIN_STEP", 1.0)
        calls = []
        read = cuts.step_length
        monkeypatch.setattr(cuts, "step_length", lambda search, k: calls.append(k) or read(search, k))
        stops = []
        for cp, free in separations:
            assert ref.margin(free, cp.apex_x, cp.apex_t) > sfree.INTERIOR_TOL
            search = cuts.ray_steps(free, cp.apex_x, cp.apex_t, cp.x_dir, cp.t_dir)
            fails = [k for k in range(cp.nrays) if search.eta[k] < cuts.MIN_STEP]
            calls.clear()
            intersection_cut(cp, free)
            assert calls == list(range(fails[0] + 1 if fails else cp.nrays)), free.kind
            stops.append(fails[0] if fails else None)
        assert any(k is not None for k in stops)


# Separations with one ray on which plain discrete Newton finds no root, from the benchmark's
# instances: (instance, mode, round, set kind)
ROOTLESS = [
    # seed-1 maxcut-sparse: zeta is flat at NEWTON_START, and eta alternates between 4.27e16 and 0.0
    (lambda: ref.cut_instance(pw_graph(20, 0.15, 1020, max_weight=1)), "both", 2, "env"),
    # seed-2 mubo-validated: a Newton step lands on eta = 0.0, where doubling stays
    (lambda: BmpInstance(autocorr_polynomial(12, 2, 0.2, 2047)), "both", 1, "ss"),
    # seed-3 mubo-validated: a Newton step lands on eta = -32, and doubling runs away
    (lambda: BmpInstance(autocorr_polynomial(12, 2, 0.2, 3019)), "submodular", 1, "ss"),
]


@pytest.fixture(scope="module")
def searches_without_root():
    """(corner, free set, cut validator) of every ROOTLESS separation, on the corners of a loop
    that steps every ray by Newton."""
    out = []
    for make, mode, round_, kind in ROOTLESS:
        instance = make()
        corners = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cuts, "ray_steps", ref.newton_steps)
            separations = loop_separations(instance, mode, round_)
        for cp, free in separations:
            corners.setdefault(id(cp), []).append((cp, free))
        [(cp, free)] = [pair for pair in list(corners.values())[round_ - 1] if pair[1].kind == kind]
        model, _, lift = build_model(instance)
        out.append((cp, free, CutValidator(lift, model.lower[lift.t_col])))
    return out


class TestRaysWithoutRoot:
    def test_every_ray_gets_a_root(self, monkeypatch, searches_without_root):
        blocks = counted_searches(monkeypatch)
        for cp, free, validator in searches_without_root:
            eta, iterations, exhausted = ref.newton_steps_tiled(free, cp.apex_x, cp.apex_t, cp.x_dir, cp.t_dir)
            [k] = exhausted.nonzero()[0]
            blocks.clear()
            search = ref.newton_steps(free, cp.apex_x, cp.apex_t, cp.x_dir, cp.t_dir)
            assert len(blocks) == max(search.iterations) <= 20
            # every other ray keeps its step and count
            rooted = ~exhausted
            assert np.array(search.eta)[rooted].tobytes() == eta[rooted].tobytes()
            assert np.array(search.iterations)[rooted].tolist() == iterations[rooted].tolist()
            # and ray k ends at a root, so the cut is made and valid
            zeta, _ = ref.zeta_slope(free, cp.apex_x, cp.apex_t, np.array(search.eta[k : k + 1]), cp.x_dir[k][None],
                                 cp.t_dir[k : k + 1])
            assert math.isfinite(search.eta[k]) and abs(zeta[0]) <= ref.ROOT_TOL
            assert cuts.ray_steps(free, cp.apex_x, cp.apex_t, cp.x_dir, cp.t_dir).eta[k] == pytest.approx(
                search.eta[k], rel=1e-9)
            assert ref.former_intersection_cut(cp, free) is None
            cut = intersection_cut(cp, free)
            assert cut is not None and validate_cut_bruteforce(cut, validator)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    @pytest.mark.parametrize("pin", [1.0, math.inf])
    def test_a_step_not_above_the_bracket_takes_its_midpoint(self, k3_cut, monkeypatch, pin):
        # the searching ray's row reads slope -inf in every block: with zeta 1 its Newton
        # step adds 1/inf = 0 and lands on eta, which is lo; with zeta inf the step is
        # NaN.  Either way the ray bisects (lo, ETA_INF), and the cap leaves it at lo
        ray = Ray(EnvelopeEpigraph(k3_cut), np.array([0.5, 0.5, 0.5]), 1.5, np.array([1.0, 0.0, 0.0]), 0.0)
        evaluate = ref.zeta_slope
        etas = []

        def pinned(*args):
            zeta, slope = evaluate(*args)
            zeta[-1], slope[-1] = pin, -math.inf
            etas.append(float(args[3][-1]))
            return zeta, slope

        monkeypatch.setattr(ref, "zeta_slope", pinned)
        monkeypatch.setattr(ref, "NEWTON_MAX_STEPS", 4)
        search = ref.newton_steps(ray.sfree, ray.apex_x, ray.apex_t, ray.ray_x[None], np.array([ray.ray_t]))
        want = [ref.NEWTON_START]
        for _ in range(3):
            want.append(0.5 * (want[-1] + cuts.ETA_INF))
        assert etas == want
        assert search == ([want[-1]], [4])


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
        assert not cut.rhs - cut.coef @ [1.0, 1.0, 4.0] <= cuts.CUT_TOL
        # but keeps every lifted binary graph point
        for mask in range(4):
            x = [(mask >> i) & 1 for i in range(2)]
            assert cut.rhs - cut.coef @ [x[0], x[1], poly.value(x)] <= cuts.CUT_TOL

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
        ss = SSFunction(MultilinearFunction(2, []), MultilinearFunction(2, []), level=0)
        assert gradient_cut(ss, [1.0, 0.5], 0.0, plain_lift(2)) is None

    def test_modular_sign_cut(self):
        c = np.array([2.0, -1.0])
        ss = SSFunction(MultilinearFunction(2, []), ref.modular(c), level=0)
        cut = gradient_cut(ss, [1.0, 0.0], 0.0, plain_lift(2))
        assert cut is not None
        assert cut.coef == pytest.approx([-2.0, 1.0, 0.0], abs=1e-12)
        assert cut.rhs == 0.0

    def test_nonzero_first_part_rejected(self, k3_cut):
        ss = SSFunction(k3_cut, MultilinearFunction(3, []), level=1)
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
        n = 21
        lift = plain_lift(n, BmpInstance(MultilinearFunction(n, [(1.0, {0})])))
        cut = IntersectionCut(coef=np.zeros(n + 1), rhs=0.0, kind="env", efficacy=1.0)
        with pytest.raises(CapacityError, match=r"brute force limited to n <= 20, got n = 21"):
            validate_cut_bruteforce(cut, CutValidator(lift, 0.0))

    def test_capacity_checked_before_enumeration(self, monkeypatch):
        # the guard must answer before any table is built: the residual's or a constraint's
        n = 21
        tables = []
        monkeypatch.setattr(models, "cube_table", lambda poly: tables.append(poly) or oracles.cube_table(poly))
        table, least = oracles.CubeBasis.table, oracles.CubeBasis.least
        monkeypatch.setattr(oracles.CubeBasis, "table",
                            lambda self, coefs: tables.append(coefs) or table(self, coefs))
        monkeypatch.setattr(oracles.CubeBasis, "least",
                            lambda self, coefs, excluded=None: tables.append(coefs) or least(self, coefs, excluded))
        poly = MultilinearFunction(n, [(1.0, {0})])
        lift = plain_lift(n, BmpInstance(poly, constraints=[poly]))
        cut = IntersectionCut(coef=np.zeros(n + 1), rhs=0.0, kind="env", efficacy=1.0)
        with pytest.raises(CapacityError):
            validate_cut_bruteforce(cut, CutValidator(lift, 0.0))
        assert tables == []

    def test_masked_points_are_exempt(self):
        # y_01 <= 0 and x_0 + x_1 + x_2 >= 1 are broken only at x = (1, 1, *)
        # and x = 0: the first point breaks the constraint -x_0 x_1 >= 0, the
        # second the cardinality 1
        objective = MultilinearFunction(3, [(1.0, {0}), (1.0, {1}), (1.0, {2})])
        constrained = BmpInstance(objective, constraints=[MultilinearFunction(3, [(-1.0, {0, 1})])])
        model, lift = models._lifted_lp(constrained)
        y01 = lift.y_cols[frozenset({0, 1})]
        no_pair = IntersectionCut(coef=-np.eye(lift.ncols)[y01], rhs=0.0, kind="split", efficacy=1.0)
        assert validate(no_pair, model, lift)
        check = validate(no_pair, model, dataclasses.replace(lift, instance=BmpInstance(objective)))
        assert not check and check.mask == 0b011 and check.residual == -1.0

        cardinal = BmpInstance(objective, cardinality=1)
        model, lift = models._lifted_lp(cardinal)
        coef = np.zeros(lift.ncols)
        coef[lift.x_cols] = 1.0
        some_one = IntersectionCut(coef=coef, rhs=1.0, kind="split", efficacy=1.0)
        assert validate(some_one, model, lift)
        check = validate(some_one, model, dataclasses.replace(lift, instance=BmpInstance(objective)))
        assert not check and check.mask == 0 and check.residual == -1.0

    def test_worse_end_of_t(self):
        # t is bounded below by lower_t and above by f(x); the residual takes the worse end
        lift = plain_lift(3, k3_instance())
        for a_t, rhs, want in [(-1.0, -2.0, 0.0), (1.0, -6.0, 0.0), (0.0, 0.0, 0.0), (2.0, -11.0, -1.0)]:
            coef = np.array([0.0, 0.0, 0.0, a_t])
            check = validate_cut_bruteforce(IntersectionCut(coef, rhs, "env", 1.0), CutValidator(lift, -6.0))
            assert check.residual == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind", ["g05", "autocorr"])
    def test_verdicts_match_corner_reference(self, monkeypatch, kind):
        # every cut the loop emits at n = 12, and the same cut with its rhs raised
        # past its least residual, gets the verdict of the former validator, which
        # clipped t to the cut's corner, and of the chunked cube walk through one
        # validator per run
        emitted = emitted_cuts(monkeypatch)
        total = 0
        for seed in (1000, 1001):
            if kind == "g05":
                problem = ref.cut_instance(pw_graph(12, 0.5, seed, max_weight=1))
            else:
                problem = BmpInstance(autocorr_polynomial(12, 2, 0.2, seed))
            model, targets, lift = build_model(problem)
            values = f_on_cube(lift.instance.objective)

            def in_corner(cut, cp):
                return ref.validate_cut_in_corner(cut.coef, cut.rhs, values, 1, lift, cp, cuts.CUT_TOL)

            for mode in ("split", "submodular", "ss", "both"):
                seen = emitted(model, targets, lift, mode)
                least, _ = ref.least_residuals(
                    [c.coef for c, _ in seen], [c.rhs for c, _ in seen], lift, float(model.lower[lift.t_col])
                )
                for (cut, cp), low in zip(seen, least):
                    check = validate(cut, model, lift)
                    assert check.residual == pytest.approx(low, abs=1e-9 * (1.0 + abs(cut.rhs)))
                    assert check and in_corner(cut, cp)
                    bad = dataclasses.replace(cut, rhs=cut.rhs + low + 1e-3 * (1.0 + abs(cut.rhs)))
                    assert not validate(bad, model, lift)
                    assert not in_corner(bad, cp)
                assert_matches_least_residuals([c for c, _ in seen], lift, float(model.lower[lift.t_col]))
                total += len(seen)
        assert total >= 100

    @pytest.mark.parametrize("problem", [
        ref.cut_instance(pw_graph(20, 0.5, 1000, max_weight=1)),
        BmpInstance(autocorr_polynomial(12, 2, 0.2, 1002)),
    ], ids=["g05-n20", "autocorr-n12"])
    def test_seeded_invalid_cuts_caught(self, monkeypatch, problem):
        # the least residual and its point match a chunked walk of the lifted cube,
        # and raising the rhs past that residual makes every cut invalid
        model, targets, lift = build_model(problem)
        lower_t = float(model.lower[lift.t_col])
        seen = emitted_cuts(monkeypatch)(model, targets, lift, "both", rounds=3)
        least, _ = ref.least_residuals([c.coef for c, _ in seen], [c.rhs for c, _ in seen], lift, lower_t)
        for (cut, _), low in zip(seen, least):
            check = validate(cut, model, lift)
            assert check and check.residual == pytest.approx(low, abs=1e-9 * (1.0 + abs(cut.rhs)))
            a_t = cut.coef[lift.t_col]
            mask = np.array([check.mask])
            t = ref.poly_values(lift.instance.objective.terms, mask)[0] if a_t < 0 else lower_t
            at_mask = float(ref.lifted_points(lift, mask)[0] @ cut.coef) + a_t * t - cut.rhs
            assert at_mask == pytest.approx(check.residual, abs=1e-9 * (1.0 + abs(cut.rhs)))
            bad = dataclasses.replace(cut, rhs=cut.rhs + low + 1e-3 * (1.0 + abs(cut.rhs)))
            assert not validate(bad, model, lift)
        assert len(seen) >= 4

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
            model, [target], lift = build_model(ref.cut_instance(Graph(n, edges)))
            sol = solve(model)
            cp = project_corner(corner(sol), lift)
            if np.all(np.minimum(cp.apex_x, 1 - cp.apex_x) <= 1e-6):
                continue  # already binary, nothing to separate
            cut = intersection_cut(cp, EnvelopeEpigraph(target.f1))
            if cut is None:
                continue
            emitted += 1
            assert cut.efficacy >= EFFICACY_MIN
            assert validate(cut, model, lift)
        assert emitted >= 5


class TestCutValidator:
    @pytest.mark.parametrize("masking", ["constraint", "cardinality"])
    def test_masked_instances(self, masking):
        # seeded cuts over every column, t coefficients of both signs and zero, on an
        # instance whose constraint or cardinality rules out part of the cube
        objective = autocorr_polynomial(10, 2, 0.3, 7)
        if masking == "constraint":
            terms = [(1.0, {0}), (1.0, {1}), (-3.0, {0, 1}), (1.0, {4}), (-2.0, {4, 5, 6})]
            limit = MultilinearFunction(10, terms)
            problem = BmpInstance(objective, constraints=[limit])
        else:
            problem = BmpInstance(objective, cardinality=4)
        model, lift = models._lifted_lp(problem)
        lower_t = float(model.lower[lift.t_col])
        rng = np.random.default_rng(5)
        coefs = rng.normal(size=(12, lift.ncols))
        coefs[:, lift.t_col] = np.tile([-1.0, 0.0, 1.0], 4)
        least, _ = ref.least_residuals(coefs, np.zeros(12), lift, lower_t)
        # rhs a little under or over the least residual: half the cuts valid, half not
        rhs = least + np.tile([-0.5, 0.5], 6) * rng.random(12)
        found = [IntersectionCut(coef=c, rhs=float(b), kind="env", efficacy=1.0) for c, b in zip(coefs, rhs)]
        assert_matches_least_residuals(found, lift, lower_t)
        # the masked points matter: on the whole cube some least residuals are lower
        whole = dataclasses.replace(lift, instance=BmpInstance(objective))
        assert np.any(ref.least_residuals(coefs, np.zeros(12), whole, lower_t)[0] < least - 1e-6)

    def test_tie_reports_the_least_bitmask(self):
        # every point with two of five bits ties; the least is 0b00011, not 0b11000
        problem = BmpInstance(MultilinearFunction(5, [(1.0, {j}) for j in range(5)]), cardinality=2)
        model, lift = models._lifted_lp(problem)
        cut = IntersectionCut(coef=np.zeros(lift.ncols), rhs=1.0, kind="split", efficacy=1.0)
        check = validate(cut, model, lift)
        assert not check and check.mask == 0b00011 and check.residual == -1.0

    def test_root_loop_builds_one_per_validating_run(self, monkeypatch):
        built = []
        monkeypatch.setattr(harness, "CutValidator", lambda *args: built.append(args) or CutValidator(*args))
        model, targets, lift = build_model(BmpInstance(autocorr_polynomial(12, 2, 0.2, 1000)))
        # a validating run builds its validator up front, even if it never checks a cut
        for mode, validate_cuts, runs in [("both", "on", 1), ("split", "auto", 1), ("both", "off", 0),
                                          ("none", "on", 1)]:
            built.clear()
            report = harness.root_loop(model, targets, lift, RunConfig(mode=mode, validate_cuts=validate_cuts))
            assert len(built) == runs
            if mode != "none":
                assert report.rounds >= 2 and report.cuts >= 2


def _computed_step_cases(st):
    """(free set, apex x, apex t, ray x block, ray t, whether zeta is concave) of a corner the
    steps are computed on: a split, or an envelope set with terms of degree 1 to 4 (all of degree
    1 in some), with or without gamma, at level 0 or 1, with coefficients of both signs; apex and
    ray entries mix a grid, which makes ties at the apex, parallel members and member lines
    through one point, with floats.  No ray entry is below 1e-3 in size but 0, so a slope is 0 or
    well above rounding, and a root is no worse conditioned than 1e-9 relative asks."""

    @st.composite
    def cases(draw):
        n = draw(st.integers(2, 6))
        k = draw(st.integers(1, 4))
        grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
        apex_x = np.array(draw(st.lists(grid | st.floats(0.0, 1.0), min_size=n, max_size=n)))
        size = st.floats(-3.0, 3.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)
        entry = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | size
        x_dir = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k)))
        t_dir = np.array(draw(st.lists(size, min_size=k, max_size=k)))
        if draw(st.booleans()):
            j = draw(st.integers(0, n - 1))
            apex_x[j] = draw(st.floats(0.01, 0.99))
            return LiftedSplit(j, n), apex_x, 0.0, x_dir, t_dir, True
        support = st.sets(st.integers(0, n - 1), min_size=1, max_size=draw(st.integers(1, 4)))
        terms = draw(st.lists(st.tuples(st.integers(-4, 4).filter(bool), support), min_size=1, max_size=8))
        poly = MultilinearFunction(n, terms)
        gamma = draw(st.none() | st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        free = EnvelopeEpigraph(poly, level=draw(st.sampled_from([0, 1])), gamma=gamma)
        apex_t = draw(st.floats(0.01, 3.0)) - ref.margin(free, apex_x, 0.0)
        concave = all(a <= 0.0 for a, s in poly.terms if len(s) >= 2)
        return free, apex_x, apex_t, x_dir, t_dir, concave

    return cases()


def walk_cases() -> list:
    """Corners, as :func:`_computed_step_cases` gives them, whose members meet where a walk
    must choose: three and four members tied at the apex, three member lines through one
    point, reached from either end of the member order, and an oracle of degree-1 terms only,
    whose layout has one row."""
    def case(terms, apex_x, x_dir, t_dir):
        free = EnvelopeEpigraph(MultilinearFunction(len(apex_x), terms))
        apex_x = np.array(apex_x, dtype=float)
        concave = all(a <= 0.0 for a, s in free.oracle.terms if len(s) >= 2)
        return free, apex_x, 0.5 - ref.margin(free, apex_x, 0.0), np.array(x_dir, dtype=float), np.array(t_dir), concave

    return [
        # members 0-2 tie at the apex: the walk starts on member 1, the flattest, and member 3 meets it at 0.25
        case([(-2.0, {0, 1, 2, 3}), (1.0, {0})], [0.5, 0.5, 0.5, 0.75],
             [[1.0, 0.0, 0.5, -1.0], [1.0, 0.5, 0.25, 0.0], [0.0, 0.0, 0.0, 0.0]], [-0.5, -1.0, -1.0]),
        # all four tie at the apex
        case([(-3.0, {0, 1, 2, 3})], [0.25] * 4, [[1.0, -1.0, 0.5, -0.5], [-1.0, 0.0, 0.0, 1.0]], [-2.0, 0.5]),
        # the lines of members 0, 1 and 2 meet at 0.5: the walk turns to member 1 and on to the flattest
        case([(-1.0, {0, 1, 2})], [0.5, 0.25, 0.0], [[0.0, 0.5, 1.0], [-1.0, -0.5, 0.0]], [-1.5, 0.5]),
        # the same from the other end of the member order: the walk turns to the flattest at once
        case([(-1.0, {0, 1, 2})], [0.0, 0.25, 0.5], [[1.0, 0.5, 0.0], [0.0, -0.5, -1.0]], [-1.5, 0.5]),
        case([(-1.0, {0}), (2.0, {1}), (0.5, {2})], [0.5, 0.25, 0.75], [[1.0, 0.5, 0.0], [-1.0, -1.0, 1.0]],
             [0.5, -2.0]),
    ]


def assert_first_roots(free, apex_x, apex_t, x_dir, t_dir, concave):
    """Each ray's computed step is its first root, within 1e-9 relative, where zeta is evaluated
    at the points of the ray and affine between the crossings of any two members of a term; for
    concave zeta the step is infinite exactly when zeta(ETA_INF) > 0."""
    margin = ref.margin(free, apex_x, apex_t)
    search = cuts.ray_steps(free, apex_x, apex_t, x_dir, t_dir)
    assert (search is None) == (not margin > sfree.INTERIOR_TOL)
    if search is None:
        return
    assert search.iterations == [0] * len(t_dir)
    for step, ray_x, ray_t in zip(search.eta, x_dir, t_dir):
        def zeta(eta):
            return ref.margin(free, apex_x + eta * ray_x, apex_t + eta * ray_t)

        kinks = [cuts.ETA_INF]
        if free.kind != "split":
            for _, s in free.oracle.terms:
                for u, v in itertools.combinations(sorted(s), 2):
                    if ray_x[u] != ray_x[v]:
                        kinks.append((apex_x[v] - apex_x[u]) / (ray_x[u] - ray_x[v]))
        want = ref.first_root(zeta, [eta for eta in kinks if 0.0 < eta <= cuts.ETA_INF])
        if concave:
            assert math.isinf(step) == (zeta(cuts.ETA_INF) > 0.0)
        if math.isinf(want):
            assert math.isinf(step)
        else:
            assert step == pytest.approx(want, rel=1e-9)


class TestComputedSteps:
    def test_steps_match_the_first_root(self):
        hypothesis = pytest.importorskip("hypothesis")
        cases = walk_cases()
        assert [len(free.oracle._term_layout[1]) for free, *_ in cases] == [4, 4, 3, 3, 1]
        for case in cases:
            assert_first_roots(*case)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(_computed_step_cases(hypothesis.strategies))
        def check(case):
            assert_first_roots(*case)

        check()

    def test_every_split_and_envelope_set_is_computed(self):
        # splits and envelope sets of any degree take one apex evaluation and no more; a set
        # of any other kind has no step method
        apex_x, x_dir, t_dir = np.full(3, 0.5), -np.eye(3), np.zeros(3)
        cubic = MultilinearFunction(3, [(1.0, {0}), (-1.0, {0, 1, 2})])
        k3 = cut_polynomial(Graph(3, ref.K3_EDGES))
        for free in (LiftedSplit(0, 3), EnvelopeEpigraph(k3), EnvelopeEpigraph(cubic, gamma=[0.5, 0.0, 0.0]),
                     EnvelopeEpigraph(cubic), EnvelopeEpigraph(MultilinearFunction(3, [(1.0, {2})]))):
            shapes = recorded_shapes(free)
            search = cuts.ray_steps(free, apex_x, 1.0, x_dir, t_dir)
            assert search is not None and search.iterations == [0, 0, 0]
            assert shapes == [(3,)]
        with pytest.raises(TypeError, match="CoverRelaxation"):
            cuts.ray_steps(three_chain_relaxation(k3), apex_x, 2.0, x_dir, t_dir)


def test_every_cut_of_sparse_n20_runs_is_valid(tmp_path):
    # steps computed at n = 20, where "auto" never validates: three seed-1 maxcut-sparse
    # instances under every cutting mode, each cut checked against the cube
    paths = harness.generate_instances("g05", 20, count=3, seed=1000, out_dir=tmp_path, density=0.15, max_lag=3)
    cut_count = 0
    for path in paths:
        model, targets, lift = build_model(harness.load_instance(path))
        for mode in ("split", "submodular", "both"):
            report = harness.root_loop(model, targets, lift, RunConfig(mode=mode, validate_cuts="on"))
            assert not report.failed
            cut_count += report.cuts
    assert cut_count >= 50
