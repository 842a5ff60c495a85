"""Hand-rolled reference implementations used to pin expected test values.

Everything here is deliberately naive and independent of the package:
direct loops over edges and terms, itertools permutations, pure bisection,
and exhaustive enumeration.  Slow is fine; these only run on tiny inputs.
"""

import itertools
import math

import numpy as np


def cut_value(edges, x):
    """Weight of edges crossing the cut; edges are (i, j, w), 0-based."""
    total = 0.0
    for i, j, w in edges:
        if (x[i] >= 0.5) != (x[j] >= 0.5):
            total += w
    return total


def multilinear_value(terms, x):
    """Direct sum of coefficient * product over each support."""
    total = 0.0
    for a, support in terms:
        prod = 1.0
        for j in support:
            prod *= x[j]
        total += a * prod
    return total


def greedy_sigma(values, order):
    """Marginal-gain vector along the prefix chain of a 0-based order.

    ``values`` is any callable over binary tuples.
    """
    n = len(order)
    sigma = [0.0] * n
    point = [0] * n
    prev = values(tuple(point))
    for idx in order:
        point[idx] = 1
        cur = values(tuple(point))
        sigma[idx] = cur - prev
        prev = cur
    return sigma


def envelope_by_enumeration(values, n, x):
    """Exact envelope value: max of sigma . x over all n! orders."""
    best = -math.inf
    for order in itertools.permutations(range(n)):
        sigma = greedy_sigma(values, order)
        best = max(best, sum(s * xi for s, xi in zip(sigma, x)))
    return best


def bisect_root(g, lo, hi, tol=1e-12, max_iter=200):
    """Root of a function positive at lo, nonpositive at hi, by bisection."""
    if g(lo) <= 0:
        raise ValueError("expected g(lo) > 0")
    if g(hi) > 0:
        raise ValueError("no sign change on the bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def point_feasible(x, rows, senses, rhs, lo, hi, tol=1e-8):
    for row, sense, b in zip(rows, senses, rhs):
        v = float(np.dot(row, x))
        if sense == "<=" and v > b + tol:
            return False
        if sense == ">=" and v < b - tol:
            return False
        if sense == "=" and abs(v - b) > tol:
            return False
    return all(l - tol <= xi <= u + tol for xi, l, u in zip(x, lo, hi))


def lp_enumerate(c, rows, senses, rhs, lo, hi):
    """Brute-force bounded-LP max by enumerating candidate vertices.

    Every choice of n constraints (rows treated as equalities, plus box
    facets) is solved as a linear system; feasible solutions are scored.
    Returns the best objective value, or None when nothing is feasible.
    Only sensible for a handful of variables.
    """
    n = len(c)
    gens = [(np.asarray(r, dtype=float), float(b)) for r, b in zip(rows, rhs)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if math.isfinite(lo[j]):
            gens.append((e.copy(), float(lo[j])))
        if math.isfinite(hi[j]):
            gens.append((e.copy(), float(hi[j])))
    best = None
    for combo in itertools.combinations(range(len(gens)), n):
        mat = np.array([gens[k][0] for k in combo])
        vec = np.array([gens[k][1] for k in combo])
        det = np.linalg.det(mat) if n else 1.0
        if abs(det) < 1e-10:
            continue
        x = np.linalg.solve(mat, vec)
        if point_feasible(x, rows, senses, rhs, lo, hi):
            val = float(np.dot(c, x))
            if best is None or val > best:
                best = val
    return best


def best_binary(objective, n, accept=None):
    """Max of objective over {0,1}^n, optionally filtered by accept(x)."""
    best = -math.inf
    for bits in itertools.product((0, 1), repeat=n):
        if accept is not None and not accept(bits):
            continue
        best = max(best, objective(bits))
    return best


def is_submodular_pairs(values, n, tol=1e-9):
    """Lattice inequality over all 4^n pairs, direct and unvectorized."""
    pts = list(itertools.product((0, 1), repeat=n))
    for x in pts:
        for y in pts:
            join = tuple(max(a, b) for a, b in zip(x, y))
            meet = tuple(min(a, b) for a, b in zip(x, y))
            if values(x) + values(y) < values(join) + values(meet) - tol:
                return False
    return True


K3_EDGES = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]


def ratio_test_sequential(rate, bvals, blo, bhi, basis, pivot_tol, degen_tol, upper, lower):
    """The simplex ratio test as a row-by-row scan over numpy scalars.

    Rising rows against their upper bounds first, then falling rows against
    their lower bounds, each in ascending row order; a row takes the block
    when its step is shorter by more than degen_tol, or ties within it and
    its basic column has the lower index.  Returns (row_step, block, side),
    side being ``upper`` or ``lower`` (0 when no row blocks).
    """
    row_step = math.inf
    block = -1
    block_side = 0
    for i in np.nonzero(rate > pivot_tol)[0]:
        if not np.isfinite(bhi[i]):
            continue
        s = max((bhi[i] - bvals[i]) / rate[i], 0.0)
        if s < row_step - degen_tol or (
            s <= row_step + degen_tol and block >= 0 and basis[i] < basis[block]
        ):
            row_step = min(s, row_step)
            block, block_side = i, upper
    for i in np.nonzero(rate < -pivot_tol)[0]:
        if not np.isfinite(blo[i]):
            continue
        s = max((bvals[i] - blo[i]) / (-rate[i]), 0.0)
        if s < row_step - degen_tol or (
            s <= row_step + degen_tol and block >= 0 and basis[i] < basis[block]
        ):
            row_step = min(s, row_step)
            block, block_side = i, lower
    return row_step, block, block_side


def corner_t_interval_loop(z_pts, eta_coef, eta_off, t_col, tol):
    """Per-point t interval inside a corner, one ray at a time.

    Each point z (t entry zero) may take t in [t_lo, t_hi]: a ray whose eta
    form (row k of eta_coef, eta_off) rises with t bounds t below, one that
    falls bounds it above, and a ray with a flat t coefficient excludes the
    point (t_lo = inf) when its eta is below -tol.
    """
    t_lo = np.full(z_pts.shape[0], -math.inf)
    t_hi = np.full(z_pts.shape[0], math.inf)
    for coef, off in zip(eta_coef, eta_off):
        a = float(coef[t_col])
        rest = z_pts @ coef + off
        if abs(a) <= 1e-14:
            t_lo[rest < -tol] = math.inf
        elif a > 0:
            np.maximum(t_lo, -rest / a, out=t_lo)
        else:
            np.minimum(t_hi, -rest / a, out=t_hi)
    return t_lo, t_hi


def corner_rays_loop(solution, codes):
    """The corner at an optimal basis, built one nonbasic column at a time.

    Reads the solver state kept on ``solution`` (``codes`` names its
    placement and column-kind constants: basic, at_lower, free, struct,
    slack, artificial).  Returns (column, direction, eta_coef, eta_off)
    per ray in ascending column order: the structural movement per unit
    of eta, and eta as an affine form of the structural variables.
    """
    st = solution._state
    model = st.model
    n = st.nstruct
    nb = [
        j
        for j in range(st.N)
        if st.where[j] != codes["basic"]
        and st.kinds[j] != codes["artificial"]
        and st.lo[j] != st.hi[j]
    ]
    for j in nb:
        if st.where[j] == codes["free"]:
            raise ValueError(f"free nonbasic column {j}")
    rays = []
    if nb:
        W = st.Binv @ st.A[:, nb]
        for k, j in enumerate(nb):
            delta = 1.0 if st.where[j] == codes["at_lower"] else -1.0
            full = np.zeros(st.N)
            full[j] = delta
            full[st.basis] = -delta * W[:, k]
            g = np.zeros(n)
            if st.kinds[j] == codes["struct"]:
                g[j] = delta
                bound = st.lo[j] if st.where[j] == codes["at_lower"] else st.hi[j]
                h = -delta * bound
            else:
                i = int(st.slack_row[j])
                if st.kinds[j] == codes["slack"]:
                    g = -model.rows[i].copy()
                    h = float(model.rhs[i])
                else:
                    g = model.rows[i].copy()
                    h = -float(model.rhs[i])
            rays.append((j, full[:n].copy(), g, h))
    return rays
