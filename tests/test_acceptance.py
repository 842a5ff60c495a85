"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines; the slow
directional benchmark at the end stays inside a ten minute budget.
"""

import contextlib
import itertools
import math
import time

import numpy as np
import pytest

import _reference as ref
from subcut.cuts import newton_steps, step_length, zeta_slope
from _covers import containment_witness, is_minimal_cover, three_chain_relaxation
from _reference import greedy_vertex, is_submodular_bruteforce, support_points, verify_free_bruteforce
from subcut.harness import (
    RunConfig,
    aggregate,
    autocorr_polynomial,
    generate_instances,
    pw_graph,
    root_loop,
    run_benchmark,
)
from subcut.models import BmpInstance, build_model, linearize_term
from subcut.oracles import (
    Graph,
    MultilinearFunction,
    cut_polynomial,
    envelope_eval,
    ss_decompose,
)
from subcut.sfree import EnvelopeEpigraph, build_reverse_linearized


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException as exc:
        print(f"FAIL {name}: {exc}")
        raise
    print(f"PASS {name}")


def random_graph(rng, n):
    seed = int(rng.integers(1 << 30))
    if rng.random() < 0.5:
        return pw_graph(n, density=float(rng.uniform(0.3, 0.8)), seed=seed, max_weight=1)
    return pw_graph(n, density=float(rng.uniform(0.3, 0.8)), seed=seed)


def random_poly(rng, n, max_terms=20, max_deg=4):
    terms = []
    for _ in range(int(rng.integers(2, max_terms + 1))):
        size = int(rng.integers(1, min(n, max_deg) + 1))
        support = set(rng.choice(n, size=size, replace=False).tolist())
        terms.append((float(rng.integers(-5, 6)), support))
    terms = [(a, s) for a, s in terms if a != 0.0] or [(1.0, {0})]
    return MultilinearFunction(n, terms)


def test_01_extension_identity_on_binary_points():
    with criterion("01 envelope equals the oracle on binary points (50 graphs)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 11))
            f = cut_polynomial(random_graph(rng, n))
            for bits in itertools.product((0, 1), repeat=n):
                x = np.array(bits, dtype=float)
                got = envelope_eval(f, x).value
                worst = max(worst, abs(got - f.value(x)))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9, f"max |F(x) - f(x)| = {worst:.3g}"
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_02_sorting_matches_vertex_enumeration():
    with criterion("02 sorted greedy vertex attains the max over all orders"):
        rng = np.random.default_rng(102)
        for n in range(3, 8):
            f = cut_polynomial(pw_graph(n, density=0.7, seed=n))
            vertices = np.array([greedy_vertex(f, order) for order in itertools.permutations(range(n))])
            assert vertices.shape[0] == math.factorial(n)
            for _ in range(100):
                x = rng.uniform(-2.0, 2.0, size=n)
                got = envelope_eval(f, x).value
                want = float((vertices @ x).max())
                assert abs(got - want) <= 1e-9, f"n={n}: {got} vs {want}"


def test_03_support_identity():
    with criterion("03 greedy vertex supports the oracle along its chain (1000 triples)"):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            f = cut_polynomial(random_graph(rng, n))
            order = rng.permutation(n)
            sigma = greedy_vertex(f, order)
            i = int(rng.integers(n + 1))
            v, fv = support_points(f, order)[i]
            assert abs(float(sigma @ v) - fv) <= 1e-12


def test_04_ray_linearity():
    with criterion("04 envelope is linear along the all-ones direction (1000 pairs)"):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            f = cut_polynomial(random_graph(rng, n))
            x = rng.uniform(-3.0, 3.0, size=n)
            lam = float(rng.uniform(-5.0, 5.0))
            lhs = envelope_eval(f, x + lam * np.ones(n)).value
            rhs = envelope_eval(f, x).value + lam * f.value(np.ones(n))
            assert abs(lhs - rhs) <= 1e-9


def test_05_newton_root_finding():
    with criterion("05 discrete Newton roots match bisection (1000 rays)"):
        rng = np.random.default_rng(105)
        iteration_counts = []
        finite = 0
        for trial in range(1000):
            n = int(rng.integers(2, 11))
            if trial % 2 == 0:
                sfree = EnvelopeEpigraph(cut_polynomial(random_graph(rng, n)))
            else:
                poly = random_poly(rng, n)
                ss = ss_decompose(poly)
                x_anchor = rng.uniform(0.0, 1.0, size=n)
                sfree = build_reverse_linearized(ss, x_anchor)
            apex_x = rng.uniform(0.0, 1.0, size=n)
            value, _ = sfree.value_and_subgradient(apex_x)
            apex_t = value + float(rng.uniform(0.1, 2.0))
            x_dir, t_dir = rng.normal(size=(1, n)), np.array([rng.normal()])

            def zeta(eta):  # on a one-row block, as the search evaluates it
                return float(zeta_slope(sfree, apex_x, apex_t, np.array([eta]), x_dir, t_dir)[0][0])

            # a ray cut short by the cap would end where zeta > ROOT_TOL and fail the root check
            res = step_length(newton_steps(sfree, apex_x, apex_t, x_dir, t_dir), 0)
            iteration_counts.append(res.iterations)
            assert res.iterations <= 500
            if math.isinf(res.eta):
                continue
            finite += 1
            assert abs(zeta(res.eta)) <= 1e-9
            want = ref.bisect_root(zeta, 0.0, 1e9, tol=1e-12)
            assert abs(res.eta - want) <= 1e-9
        counts = np.array(iteration_counts)
        share_fast = float((counts <= 50).mean())
        assert share_fast >= 0.99, f"only {share_fast:.1%} of runs took <= 50 steps"
        assert finite >= 200, f"too few finite steps ({finite}) to be meaningful"


def test_06_every_emitted_cut_is_valid():
    with criterion("06 all emitted cuts pass point enumeration (40 instances, all modes)"):
        rng = np.random.default_rng(106)
        problems = []
        for _ in range(20):
            problems.append(ref.cut_instance(random_graph(rng, int(rng.integers(6, 13)))))
        for k in range(20):
            n = int(rng.integers(6, 11))
            poly = autocorr_polynomial(
                n, max_lag=3, density=0.5, seed=int(rng.integers(1 << 30))
            )
            constraints = []
            if k % 3 == 0:
                constraints.append(random_poly(rng, n, max_terms=4, max_deg=3))
            problems.append(BmpInstance(poly, constraints))
        total_cuts = 0
        for problem in problems:
            model, targets, lift = build_model(problem)
            for mode in ("split", "submodular", "ss", "both"):
                cfg = RunConfig(mode=mode, validate_cuts="on")
                report = root_loop(model, targets, lift, cfg)  # raises on any invalid cut
                assert not report.failed, f"LP failure in mode {mode}"
                total_cuts += report.cuts
        assert total_cuts > 0, "no cuts were emitted at all"


def test_07_sign_split_decomposition():
    with criterion("07 sign-split parts are submodular and reproduce the polynomial"):
        rng = np.random.default_rng(107)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            poly = random_poly(rng, n, max_terms=20)
            ss = ss_decompose(poly)
            assert is_submodular_bruteforce(ss.f1)
            assert is_submodular_bruteforce(ss.f2)
            for bits in itertools.product((0, 1), repeat=n):
                x = np.array(bits, dtype=float)
                got = ss.f1.value(x) - ss.f2.value(x)
                assert abs(got - poly.value(x)) <= 1e-12


def test_08_linearization_exact_at_binary():
    with criterion("08 product linearization is exact at every binary point"):
        for size in range(2, 6):
            ncols = size + 1
            rows, senses, rhs = linearize_term(set(range(size)), size, np.arange(size), ncols)
            for bits in itertools.product((0, 1), repeat=size):
                prod = 1.0
                for b in bits:
                    prod *= b
                # the only y satisfying all rows is the product itself
                z = np.zeros(ncols)
                z[:size] = bits
                z[size] = prod
                for row, sense, b in zip(rows, senses, rhs):
                    v = float(row @ z)
                    assert v <= b + 1e-12 if sense == "<=" else v >= b - 1e-12
                upper = min(bits)
                lower = max(0.0, sum(bits) - size + 1)
                assert upper == lower == prod


def test_09_three_chain_counterexample():
    with criterion("09 three-chain relaxation: free, strictly larger, minimal cover"):
        f = cut_polynomial(Graph(3, ref.K3_EDGES))
        relax = three_chain_relaxation(f)
        assert verify_free_bruteforce(relax, f)
        witness = containment_witness(relax)
        assert witness is not None
        x, t = witness
        assert ref.margin(relax, x, t) >= -1e-6
        assert envelope_eval(f, x).value > t + 1e-9
        three = [[2, 1, 0], [1, 0, 2], [0, 2, 1]]
        assert is_minimal_cover(3, three)
        all_six = [list(p) for p in itertools.permutations(range(3))]
        assert not is_minimal_cover(3, all_six)


def test_10_directional_gap_ordering(tmp_path):
    name = "10 closed-gap ordering submodular >= split >= none on 20 instances"
    with criterion(name):
        paths = generate_instances("g05", 20, count=10, seed=0, out_dir=tmp_path, density=0.5)
        paths += generate_instances(
            "autocorr", 15, count=10, seed=0, out_dir=tmp_path, density=0.35, max_lag=3
        )
        t0 = time.perf_counter()
        reports = run_benchmark(paths, RunConfig(), modes=["none", "split", "submodular"])
        elapsed = time.perf_counter() - t0
        assert not any(r.failed for r in reports)
        summary = aggregate(reports)
        closed_none = summary["none"]["closed"]
        closed_split = summary["split"]["closed"]
        closed_sub = summary["submodular"]["closed"]
        assert closed_none == pytest.approx(0.0, abs=1e-12)
        assert closed_sub >= closed_split >= closed_none, (
            f"ordering broken: {closed_sub:.4f} vs {closed_split:.4f} vs {closed_none:.4f}"
        )
        assert closed_sub > 0.0
        assert elapsed <= 600.0, f"benchmark took {elapsed:.0f}s"
