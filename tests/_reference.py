"""Hand-rolled reference implementations used to pin expected test values.

Everything here is deliberately naive and independent of the package:
direct loops over edges and terms, itertools permutations, pure bisection,
and exhaustive enumeration.  Slow is fine; these run on tiny inputs, apart
from the chunked cube walks, which pin the brute-force primal and the least
cut residuals at n <= 20.  Four exceptions only build package objects:
:func:`modular`, a polynomial for tests that need a modular function,
:func:`with_complement`, one that is complement-symmetric,
:func:`cut_instance`, the instance a max-cut file loads as, and
:func:`full_lp`, the lean LP with its deferred rows appended.
:func:`chain_values` sums a package polynomial's coefficients along the
prefix chain of an order, :func:`greedy_vertex` differences them into the
greedy vertex of that order, and :func:`greedy_envelope` takes the order of
a point: the paper's definition of the envelope, which the package computes
in closed form.  Three evaluate a package set at one point at a time:
:func:`margin` at the point, :func:`newton_step_length` along a ray, and
:func:`verify_free_bruteforce` at every binary point of its target;
:func:`first_root` bisects a function given pointwise, such as a ray's
zeta, on the first bracket of its kinks where it turns nonpositive.
:class:`ExplicitLogicalSimplex` runs the package's dual simplex over an
explicit constraint matrix, and :class:`MaskedPivotSimplex` with its former
per-solve set-up and pivot masks; :func:`newton_steps_tiled` is the former
step search, and :func:`former_intersection_cut` and
:func:`former_with_extra_rows` the former separation path and row append.
:func:`former_corner` is the former corner extraction by boolean masks,
:func:`former_brute_force_primal` the max of the full cube table and
:func:`former_lifted_lp` the lifted LP built row by row and stacked, and
:func:`former_cube_basis` the cube basis with its bitmasks summed by shifts.
:func:`values_on_cube` and :func:`is_submodular_bruteforce` are the
former package cube table and vectorized 4^n lattice check, kept as the
oracles of the sign certificate.  The chain-cover relaxations build on
the package's free sets and LP solver, so they live apart, in ``_covers``.
"""

import functools
import itertools
import math

import numpy as np

from subcut import cuts, simplex
from subcut.errors import NumericError, SeparationBudget, check_capacity
from subcut.models import BmpInstance
from subcut.oracles import MultilinearFunction, cube_table, cut_polynomial
from subcut.sfree import INTERIOR_TOL


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


def modular(c):
    """The modular function x -> c . x as a degree-1 polynomial (zero entries leave no term)."""
    return MultilinearFunction(len(c), [(cj, {j}) for j, cj in enumerate(c)])


def with_complement(n, terms):
    """g(x) + g(1 - x) less its constant, for g the polynomial of ``terms``: a complement-symmetric polynomial."""
    out = list(terms)
    for a, support in terms:
        members = sorted(support)
        for k in range(1, len(members) + 1):
            out += [((-1) ** k * a, s) for s in itertools.combinations(members, k)]
    return MultilinearFunction(n, out)


def cut_instance(graph):
    """The max-cut instance of a package Graph, as ``load_instance`` builds it from a .mc file."""
    return BmpInstance(cut_polynomial(graph))


def full_lp(model, lift):
    """The full lifted LP: the lean ``build_model`` LP with every row of ``lift.deferred`` appended."""
    d = lift.deferred
    return model.with_extra_rows(d.rows, d.row_senses, d.rhs)


def chain_values(poly, order):
    """Values of a package polynomial along the prefix chain of ``order``: f(0), f(e_{o0}), ..., f(1).

    A term switches on at the chain position where the last of its members
    enters.  The coefficients are added at those positions in term order and
    then summed along the chain, so the values are exact for integer
    coefficients.  A (k, n) block of orders gives one row of n + 1 values
    per order.
    """
    order = np.asarray(order, dtype=int)
    orders = order.reshape(-1, poly.n)
    out = np.zeros((orders.shape[0], poly.n + 1))
    for row, o in zip(out, orders):
        position = {v: p for p, v in enumerate(o.tolist(), start=1)}
        for a, support in poly.terms:
            row[max(position[j] for j in support)] += a
        np.add.accumulate(row, out=row)
    return out.reshape(order.shape[:-1] + (poly.n + 1,))


def greedy_vertex(oracle, order):
    """Marginal-gain vector of a package polynomial along the prefix chain of ``order``.

    Component order[i] holds f(chain_{i+1}) - f(chain_i), from one
    :func:`chain_values` call; for submodular f this is a vertex of the
    extended polymatroid.  ``order`` must be a permutation of 0..n-1.
    """
    order = np.asarray(order, dtype=int)
    if order.shape != (oracle.n,) or sorted(order.tolist()) != list(range(oracle.n)):
        raise ValueError(f"not a permutation of 0..{oracle.n - 1}: {order}")
    chain = chain_values(oracle, order)
    sigma = np.empty(oracle.n)
    sigma[order] = chain[1:] - chain[:-1]
    return sigma


def greedy_envelope(oracle, x):
    """(value, subgradient) of the envelope at a point by the paper's greedy definition.

    The chain takes the coordinates of x in nonincreasing order, ties by
    index (Python's sort is stable, and -0.0 ties +0.0); the subgradient is
    that order's :func:`greedy_vertex` and the value its product with x.
    """
    x = np.asarray(x, dtype=float)
    sigma = greedy_vertex(oracle, sorted(range(oracle.n), key=lambda i: -x[i]))
    return float(sigma @ x), sigma


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


def chain_points(order) -> list:
    """Monotone 0-1 chain induced by ``order``: all-zeros up to all-ones."""
    order = np.asarray(order, dtype=int)
    n = order.size
    points = [np.zeros(n)]
    x = np.zeros(n)
    for j in order:
        x = x.copy()
        x[j] = 1.0
        points.append(x)
    return points


def chain_to_permutation(points) -> np.ndarray:
    """Inverse of :func:`chain_points`; rejects anything that is not a full chain."""
    pts = [np.asarray(p, dtype=float) for p in points]
    if not pts:
        raise ValueError("empty chain")
    n = pts[0].size
    if len(pts) != n + 1:
        raise ValueError(f"a full chain on n = {n} has {n + 1} points, got {len(pts)}")
    if np.any(pts[0] != 0.0):
        raise ValueError("chain must start at the all-zero point")
    order = np.empty(n, dtype=int)
    for i in range(n):
        diff = pts[i + 1] - pts[i]
        added = np.nonzero(diff)[0]
        if added.size != 1 or diff[added[0]] != 1.0:
            raise ValueError(f"chain step {i} does not add exactly one coordinate")
        order[i] = added[0]
    return order


def support_points(poly, order) -> list:
    """The n + 1 chain points of ``order`` paired with the polynomial's values there.

    The values come from :func:`multilinear_value` over ``poly.terms``.
    """
    return [(p, multilinear_value(poly.terms, p)) for p in chain_points(order)]


def margin(sfree, x, t) -> float:
    """level * t - G(x) of a free set at one point: positive inside, zero on the boundary, negative outside."""
    value, _ = sfree.value_and_subgradient(x)
    return sfree.level * float(t) - value


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


def first_root(g, kinks):
    """Least eta >= 0 with g(eta) <= 0, for g positive at 0 and affine between its sorted ``kinks``.

    g is evaluated at the kinks in order, and the first bracket whose right
    end has g <= 0 is halved 100 times: from a width of at most 1e9 that
    leaves 8e-22, within 1e-9 relative of any root above 1e-12.  inf when g
    is positive at every kink.
    """
    lo = 0.0
    for eta in sorted(kinks):
        if g(eta) <= 0.0:
            return bisect_root(g, lo, eta, tol=0.0, max_iter=100)
        lo = eta
    return math.inf


def newton_step_length(sfree, apex_x, apex_t, ray_x, ray_t):
    """(step, evaluations) of one ray by scalar safeguarded discrete Newton.

    The rule ``cuts.newton_steps`` applies to every ray in lockstep, run on
    one ray with one point per evaluation and the ``cuts`` settings read at
    call time: an infinite step when zeta(ETA_INF) > 0, else Newton steps on
    negative slopes and doubling otherwise from NEWTON_START, until
    |zeta| <= ROOT_TOL.  Raises SeparationBudget after NEWTON_MAX_STEPS
    evaluations.
    """

    def zeta(eta):
        value, grad = sfree.value_and_subgradient(apex_x + eta * ray_x)
        lvl = sfree.level
        return lvl * (apex_t + eta * ray_t) - value, lvl * ray_t - float(grad @ ray_x)

    if zeta(cuts.ETA_INF)[0] > 0.0:
        return math.inf, 0
    eta = cuts.NEWTON_START
    for it in range(1, cuts.NEWTON_MAX_STEPS + 1):
        value, slope = zeta(eta)
        if abs(value) <= cuts.ROOT_TOL:
            return eta, it
        eta = eta - value / slope if slope < 0.0 else 2.0 * eta
    raise SeparationBudget(f"no root within {cuts.NEWTON_MAX_STEPS} steps")


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


SUBMODULARITY_TOL = 1e-9


def values_on_cube(f):
    """All 2^n values of a package polynomial indexed by bitmask (bit i <-> variable i). Guarded."""
    check_capacity("cube enumeration", f.n)
    return cube_table(f)


def is_submodular_bruteforce(f) -> bool:
    """Check f(x) + f(y) >= f(x | y) + f(x & y) over all 4^n pairs, one x at a time. Guarded."""
    vals = values_on_cube(f)
    ymasks = np.arange(vals.size, dtype=np.int64)
    for xmask in range(vals.size):
        join = vals[xmask | ymasks]
        meet = vals[xmask & ymasks]
        if np.any(vals[xmask] + vals - join - meet < -SUBMODULARITY_TOL):
            return False
    return True


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


def verify_free_bruteforce(sfree, target) -> bool:
    """No point of the target's geometry lies strictly inside the free set.

    Hypograph targets (level 1, and any target without a level) are checked
    at (x, f(x)) for every binary x; superlevel targets (level 0) at every
    sign-feasible binary x.  "Strictly inside" is a margin above the
    package's INTERIOR_TOL, the threshold the separator uses.
    """
    level = getattr(target, "level", 1)
    for bits in itertools.product((0.0, 1.0), repeat=target.n):
        x = np.array(bits)
        fx = target.value(x)
        if level == 0 and fx < -1e-12:
            continue
        if margin(sfree, x, fx) > INTERIOR_TOL:
            return False
    return True


K3_EDGES = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]


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


def corner_rays_loop(solution):
    """The corner at an optimal basis, built one nonbasic column at a time.

    Reads the solver state kept on ``solution``: a ray for each column
    outside the basis whose bounds differ, moving the way the solver's
    signed direction ``dirn`` says.  Returns (column, direction, eta_coef,
    eta_off) per ray in ascending column order: the structural movement
    per unit of eta, and eta as an affine form of the structural variables.
    """
    st = solution._state
    model = st.model
    n = st.nstruct
    basic = set(st.basis.tolist())
    nb = [j for j in range(st.N) if j not in basic and st.lo[j] != st.hi[j]]
    rays = []
    if nb:
        W = st.Binv @ st._columns(np.array(nb))
        for k, j in enumerate(nb):
            delta = float(st.dirn[j])
            full = np.zeros(st.N)
            full[j] = delta
            full[st.basis] = -delta * W[:, k]
            g = np.zeros(n)
            if j < n:
                g[j] = delta
                bound = st.lo[j] if delta > 0 else st.hi[j]
                h = -delta * bound
            else:
                i = j - n
                if model.row_senses[i] == "<=":
                    g = -model.rows[i].copy()
                    h = float(model.rhs[i])
                else:
                    g = model.rows[i].copy()
                    h = -float(model.rhs[i])
            rays.append((j, full[:n].copy(), g, h))
    return rays


def cut_from_steps_loop(corner, steps):
    """The intersection cut's (coef, rhs), one finite ray at a time in ray order."""
    coef = np.zeros(corner.apex.size)
    rhs = 1.0
    for k, eta in enumerate(steps):
        if math.isfinite(eta):
            coef += corner.eta_coef[k] / eta
            rhs -= float(corner.eta_off[k]) / eta
    return coef, rhs


class ExplicitLogicalSimplex(simplex._DualSimplex):
    """The package's dual simplex with the matrix [rows | diag(sign)] formed.

    Every column and product hook reads the explicit m x (n + m) matrix,
    as the solver did before its logical block became implicit, so a
    solve through this class gives the reference pivot path.
    """

    @functools.cached_property
    def A(self):
        return np.hstack([self.model.rows, np.diag(self.sign)])

    def _columns(self, idx, first=0):
        return self.A[np.arange(first, self.m)][:, idx]

    def _times_matrix(self, v):
        return v @ self.A

    def _matrix_times(self, z):
        return self.A @ z

    def _binv_column(self, q):
        return self.Binv @ self.A[:, q]


# placement codes of MaskedPivotSimplex
BASIC = 0
AT_LOWER = 1
AT_UPPER = 2


class MaskedPivotSimplex(simplex._DualSimplex):
    """The package's dual simplex with its former set-up and pivot bookkeeping.

    Every solve builds each row's sign, bounds, cost and padded row from the
    model (a warm one as well, with the senses as a string array), a warm
    inverse is assembled by ``np.block``, each column's placement is a code
    (basic, at lower, at upper), and the pivots keep two masks of the
    columns free to rise and to fall.  A solve through this class gives the
    reference pivot path for the signed direction and the warm set-up from
    the prefix.  Each pivot loop ends by writing the masks into ``dirn``,
    which the inherited certificate and the corner read.
    """

    def __init__(self, model, prefix=None, max_iters=None):
        self.model = model
        m, n = model.nrows, model.ncols
        self.m = m
        self.nstruct = n
        self.N = n + m
        senses = np.array(model.row_senses, dtype=str)
        self.sign = np.where(senses == ">=", -1.0, 1.0)
        self.rows_pad = np.zeros((m, -(-n // 16) * 16))
        self.rows_pad[:, :n] = model.rows
        self.lo = np.concatenate([model.lower, np.zeros(m)])
        self.hi = np.concatenate([model.upper, np.where(senses == "=", 0.0, math.inf)])
        self.cost = np.concatenate([(-1.0 if model.sense == "max" else 1.0) * model.objective, np.zeros(m)])
        self.max_iters = max(5000, 50 * (m + self.N)) if max_iters is None else max_iters
        self.iterations = 0
        if prefix is None:
            self._slack_basis()
        else:
            self._extend(prefix)

    def _slack_basis(self):
        super()._slack_basis()
        up = self.cost[: self.nstruct] < 0.0
        self.where = np.concatenate([np.where(up, AT_UPPER, AT_LOWER), np.full(self.m, BASIC)])

    def _extend(self, old):
        k, n = old.m, self.nstruct
        new = np.arange(k, self.m)
        s = self.sign[new]
        self.basis = np.concatenate([old.basis, n + new])
        self.where = np.concatenate([old.where, np.full(new.size, BASIC)])
        self.val = np.concatenate([old.val, s * (self.model.rhs[new] - self.model.rows[new] @ old.val[:n])])
        self.Binv = np.block([
            [old.Binv, np.zeros((k, new.size))],
            [-s[:, None] * (self._columns(old.basis, first=k) @ old.Binv), np.diag(s)],
        ])
        self.since_refactor = old.since_refactor
        self.d = np.concatenate([old.d, np.zeros(new.size)])

    def _iterate(self):
        m, basis = self.m, self.basis
        movable = self.lo != self.hi
        rising = movable & (self.where == AT_LOWER)
        falling = movable & (self.where == AT_UPPER)
        xb, lo_b, hi_b = self.val[basis], self.lo[basis], self.hi[basis]
        buf = np.empty((m, m))
        status = simplex.OPTIMAL
        while m:
            below = lo_b - xb
            viol = np.maximum(below, xb - hi_b)
            r = int(np.argmax(viol))
            if viol[r] <= simplex.FEAS_TOL:
                break
            if self.iterations >= self.max_iters:
                raise NumericError(f"simplex iteration cap {self.max_iters} reached (m={m}, n={self.N})")
            up = below[r] > 0.0
            alpha = self._times_matrix(self.Binv[r])
            drive = -alpha if up else alpha
            idx = np.flatnonzero((rising & (drive > simplex.PIVOT_TOL)) | (falling & (drive < -simplex.PIVOT_TOL)))
            if idx.size == 0:
                status = simplex.INFEASIBLE
                break
            q = int(idx[np.argmin(np.abs(self.d[idx] / alpha[idx]))])
            w = self._binv_column(q)
            if abs(w[r]) < simplex.PIVOT_TOL:
                raise NumericError(f"vanishing pivot {w[r]} in column {q}")
            leaving = basis[r]
            bound = lo_b[r] if up else hi_b[r]
            step = (xb[r] - bound) / w[r]
            entering = self.val[q] + step
            xb -= step * w
            xb[r], lo_b[r], hi_b[r] = entering, self.lo[q], self.hi[q]
            self.val[leaving] = bound
            self.where[leaving] = AT_LOWER if up else AT_UPPER
            rising[leaving] = up and movable[leaving]
            falling[leaving] = not up and movable[leaving]
            basis[r] = q
            self.where[q] = BASIC
            rising[q] = falling[q] = False
            self.d -= (self.d[q] / alpha[q]) * alpha
            self.d[q] = 0.0
            self._update_inverse(r, w, buf)
            self.iterations += 1
            self.since_refactor += 1
            if self.since_refactor >= simplex.REFACTOR_EVERY:
                self.val[basis] = xb
                self._refactor()
                xb = self.val[basis]
        self.val[basis] = xb
        self.dirn = rising.astype(float) - falling
        return status


def newton_steps_tiled(sfree, apex_x, apex_t, x_dir, t_dir):
    """``cuts.newton_steps`` as it was before its first block was concatenated.

    The probe block gathers the rays through ``np.tile`` and repeats the two
    probe steps, it holds no apex row, every ray without a root runs to the
    budget, and the result holds arrays.  Returns (eta, iterations,
    exhausted).
    """
    n = len(t_dir)
    steps = np.full(n, math.inf)
    iterations = np.zeros(n, dtype=int)
    rays = np.arange(n)
    probes = np.tile(rays, 2)
    zeta, slope = cuts.zeta_slope(sfree, apex_x, apex_t, np.repeat([cuts.ETA_INF, cuts.NEWTON_START], n),
                                  x_dir[probes], t_dir[probes])
    searching = ~(zeta[:n] > 0.0)
    rays, zeta, slope = rays[searching], zeta[n:][searching], slope[n:][searching]
    eta = np.full(rays.size, cuts.NEWTON_START)
    for it in range(1, cuts.NEWTON_MAX_STEPS + 1):
        root = np.abs(zeta) <= cuts.ROOT_TOL
        steps[rays[root]] = eta[root]
        iterations[rays[root]] = it
        rays, eta, zeta, slope = rays[~root], eta[~root], zeta[~root], slope[~root]
        if not rays.size or it == cuts.NEWTON_MAX_STEPS:
            break
        newton = slope < 0.0
        eta = np.where(newton, eta - zeta / np.where(newton, slope, 1.0), 2.0 * eta)
        zeta, slope = cuts.zeta_slope(sfree, apex_x, apex_t, eta, x_dir[rays], t_dir[rays])
    exhausted = np.zeros(n, dtype=bool)
    exhausted[rays] = True
    steps[rays] = eta
    iterations[rays] = cuts.NEWTON_MAX_STEPS
    return steps, iterations, exhausted


def former_intersection_cut(corner, sfree):
    """``cuts.intersection_cut`` as it was before the apex joined the probe block.

    The apex margin is a point evaluation of its own, the steps come from the
    full-budget search of :func:`newton_steps_tiled`, and the rhs is a loop
    over the finite rays.  Returns the cut, or None where the package skips.
    """
    if not margin(sfree, corner.apex_x, corner.apex_t) > INTERIOR_TOL:
        return None
    eta, iterations, exhausted = newton_steps_tiled(sfree, corner.apex_x, corner.apex_t, corner.x_dir,
                                                    corner.t_dir)
    if exhausted.any() or (eta < cuts.MIN_STEP).any():
        return None
    finite = np.isfinite(eta)
    if not finite.any():
        return None
    coef = np.add.reduce(corner.eta_coef[finite] / eta[finite][:, None], axis=0)
    rhs = 1.0
    for k in finite.nonzero()[0]:
        rhs -= float(corner.eta_off[k]) / float(eta[k])
    norm = float(np.linalg.norm(coef))
    mags = np.abs(coef[np.abs(coef) > 1e-12])
    if norm <= 1e-12 or (mags.size and mags.max() / mags.min() > cuts.DYNAMIC_RANGE_MAX):
        return None
    efficacy = (rhs - float(coef @ corner.apex)) / norm
    if efficacy < cuts.EFFICACY_MIN:
        return None
    return cuts.IntersectionCut(coef=coef, rhs=rhs, kind=sfree.kind, efficacy=efficacy, steps=eta.tolist(),
                                newton_iters=int(iterations.sum()), infinite_steps=int((~finite).sum()))


def former_with_extra_rows(model, rows, senses, rhs):
    """``LpModel.with_extra_rows`` as it was: the appended rows checked by a throwaway model."""
    extra = simplex.LpModel(model.sense, model.objective, np.atleast_2d(rows), list(senses),
                            np.atleast_1d(rhs), model.lower, model.upper)
    return simplex.LpModel(model.sense, model.objective.copy(), np.vstack([model.rows, extra.rows]),
                           list(model.row_senses) + extra.row_senses,
                           np.concatenate([model.rhs, extra.rhs]), model.lower.copy(), model.upper.copy())


def poly_values(terms, masks):
    """Values of a term list at the integer bitmasks ``masks`` (bit i is x_i), term by term."""
    vals = np.zeros(masks.size)
    for a, support in terms:
        m = sum(1 << j for j in support)
        vals += a * ((masks & m) == m)
    return vals


def chunked_primal(problem, chunk=1 << 14):
    """Max over {0,1}^n walked in bitmask chunks: the former brute-force primal.

    ``problem`` is a graph (``edges``, cut values) or a polynomial instance
    (``objective``, ``constraints`` >= 0, optional ``cardinality``); each
    chunk evaluates the feasible points edge by edge or term by term.
    Returns -inf when no point is feasible.
    """
    n = problem.n
    cols = np.arange(n, dtype=np.int64)
    best = -math.inf
    for lo in range(0, 1 << n, chunk):
        masks = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.int64)
        bits = ((masks[:, None] >> cols) & 1).astype(bool)
        ok = np.ones(masks.size, dtype=bool)
        if hasattr(problem, "edges"):
            ei = np.array([e[0] for e in problem.edges], dtype=int)
            ej = np.array([e[1] for e in problem.edges], dtype=int)
            ew = np.array([e[2] for e in problem.edges], dtype=float)
            vals = (bits[:, ei] ^ bits[:, ej]) @ ew
        else:
            for c in problem.constraints:
                ok &= poly_values(c.terms, masks) >= 0.0
            if problem.cardinality is not None:
                ok &= bits.sum(axis=1) == problem.cardinality
            vals = poly_values(problem.objective.terms, masks)
        if ok.any():
            best = max(best, float(vals[ok].max()))
    return best


def lifted_points(lift, masks):
    """The binary points at ``masks`` in column space: x, exact products in the y columns, t = 0."""
    bits = ((masks[:, None] >> np.arange(lift.n)) & 1).astype(float)
    z = np.zeros((masks.size, lift.ncols))
    z[:, lift.x_cols] = bits
    for support, col in lift.y_cols.items():
        z[:, col] = bits[:, sorted(support)].prod(axis=1)
    return z


def least_residuals(coefs, rhs, lift, lower_t, chunk=1 << 14):
    """Per cut, the least coef.z - rhs over the feasible binary points of ``lift.instance``.

    Walks the cube in bitmask chunks: each feasible x is lifted with exact
    products and the worse end of t in [lower_t, f(x)], f summed term by term.
    Returns (least residuals, bitmasks where they are reached), one per row of
    ``coefs``.
    """
    instance = lift.instance
    n = lift.n
    coefs = np.atleast_2d(np.asarray(coefs, dtype=float))
    a_t = coefs[:, lift.t_col]
    best = np.full(coefs.shape[0], math.inf)
    where = np.zeros(coefs.shape[0], dtype=np.int64)
    for lo in range(0, 1 << n, chunk):
        masks = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.int64)
        ok = np.ones(masks.size, dtype=bool)
        for c in instance.constraints:
            ok &= poly_values(c.terms, masks) >= 0.0
        if instance.cardinality is not None:
            ok &= ((masks[:, None] >> np.arange(n)) & 1).sum(axis=1) == instance.cardinality
        if not ok.any():
            continue
        masks = masks[ok]
        f = poly_values(instance.objective.terms, masks)
        t = np.where(a_t[None, :] < 0.0, f[:, None], lower_t)
        res = lifted_points(lift, masks) @ coefs.T + a_t * t - np.asarray(rhs)
        k = res.argmin(axis=0)
        low = res[k, np.arange(res.shape[1])]
        better = low < best
        best[better] = low[better]
        where[better] = masks[k[better]]
    return best, where


def validate_cut_in_corner(coef, rhs, values, level, lift, corner, tol):
    """The former brute-force validator: the cut checked on the binary points its corner reaches.

    ``values`` holds the target on the cube in bitmask order.  For each binary
    x, lifted with exact products, t ranges over an interval: capped above by
    f(x) for a hypograph (level 1), unbounded on the sign-feasible x of a
    superlevel set (level 0), and clipped to the corner's eta >= 0 forms.  The
    cut is affine in t, so only the worse endpoint is tested; an empty
    interval exempts the point, and a cut leaning on an unbounded t direction
    fails.  Without a corner only the cap clips t.
    """
    coef = np.asarray(coef, dtype=float)
    z_pts = lifted_points(lift, np.arange(1 << lift.n, dtype=np.int64))
    cap = np.asarray(values, dtype=float)
    if level == 0:
        z_pts = z_pts[cap >= -1e-12]
        cap = np.full(z_pts.shape[0], math.inf)
    t_lo = np.full(z_pts.shape[0], -math.inf)
    t_hi = cap.copy()
    if corner is not None:
        t_lo, hi = corner_t_interval_loop(z_pts, corner.eta_coef, corner.eta_off, lift.t_col, tol)
        t_hi = np.minimum(hi, cap)
    alive = t_lo <= t_hi + tol
    a_t = float(coef[lift.t_col])
    base = z_pts @ coef
    if abs(a_t) <= 1e-12:
        flagged = alive & (base < rhs - tol)
        probe = np.minimum(np.maximum(t_lo, 0.0), t_hi)
    else:
        worst = t_lo if a_t > 0 else t_hi
        if np.any(alive & np.isinf(worst)):
            return False
        flagged = alive & (base + a_t * worst < rhs - tol)
        probe = worst
    hull = [_in_corner_hull(corner, z_pts[k], lift.t_col, float(probe[k])) for k in np.flatnonzero(flagged)]
    return not any(hull)


def _in_corner_hull(corner, z, t_col, t_val):
    """Whether z with t = t_val reconstructs from the corner's apex and rays.

    The eta forms are necessary conditions; a corner with fewer rays than
    columns (equality rows took some logicals) also needs the point on its
    affine hull.
    """
    if corner is None or math.isinf(t_val) or corner.nrays == corner.apex.size:
        return True
    probe = np.array(z, dtype=float)
    probe[t_col] = t_val
    recon = corner.apex + (corner.eta_coef @ probe + corner.eta_off) @ corner.directions
    return bool(np.max(np.abs(recon - probe)) <= 1e-6 * (1.0 + np.max(np.abs(probe))))


def former_corner(solution):
    """``simplex.corner`` as it was: the bound and row rays picked by boolean masks of the nonbasics."""
    st = solution._state
    n = st.nstruct
    nb = np.flatnonzero(st.dirn)
    k = nb.size
    rows = np.arange(k)
    delta = st.dirn[nb]
    struct = nb < n
    sj = nb[struct]
    directions = np.zeros((k, n))
    directions[rows[struct], sj] = delta[struct]
    basic = np.flatnonzero(st.basis < n)
    moves = -delta[:, None] * (st.Binv @ st._columns(nb)).T
    directions[:, st.basis[basic]] = moves[:, basic]
    eta_coef = np.zeros((k, n))
    eta_off = np.zeros(k)
    eta_coef[rows[struct], sj] = delta[struct]
    eta_off[struct] = -delta[struct] * np.where(delta[struct] > 0.0, st.lo[sj], st.hi[sj])
    i = nb[~struct] - n
    eta_coef[~struct] = -st.sign[i][:, None] * st.model.rows[i]
    eta_off[~struct] = st.sign[i] * st.model.rhs[i]
    return simplex.CornerPolyhedron(apex=solution.x.copy(), columns=nb, directions=directions,
                                    eta_coef=eta_coef, eta_off=eta_off)


def former_brute_force_primal(instance):
    """The former brute-force primal: the max of the objective's full cube table, infeasible entries at -inf."""
    values = cube_table(instance.objective)
    for c in instance.constraints:
        values[cube_table(c) < 0.0] = -math.inf
    if instance.cardinality is not None:
        values[np.bitwise_count(np.arange(1 << instance.n)) != instance.cardinality] = -math.inf
    return float(values.max())


def former_lifted_lp(instance):
    """The former lean and deferred lifted LPs: each product's rows as their own arrays, stacked at the end.

    Returns (lean, deferred) LpModels, built row by row as the package built
    them before it wrote both blocks in place.
    """
    n = instance.n
    funcs = [instance.objective] + list(instance.constraints)
    supports = {s for f in funcs for _, s in f.terms if len(s) >= 2}
    supports = sorted(supports, key=lambda s: (len(s), sorted(s)))
    ncols = n + len(supports) + 1
    t_col = ncols - 1
    y_cols = {s: n + i for i, s in enumerate(supports)}
    weight = {s: a for a, s in instance.objective.terms}
    for c in instance.constraints:
        weight.update((s, 0.0) for _, s in c.terms)
    lean, deferred = [], []
    for s in supports:
        k = len(s)
        rows = np.zeros((k + 1, ncols))
        rows[:, y_cols[s]] = 1.0
        for i, j in enumerate(sorted(s)):
            rows[i, j] = rows[k, j] = -1.0
        block = list(zip(rows, ["<="] * k + [">="], [0.0] * k + [1.0 - k]))
        a = weight.get(s, 0.0)
        if a < 0.0:
            deferred += block[:k]
            lean.append(block[k])
        elif a > 0.0:
            lean += block[:k]
            deferred.append(block[k])
        else:
            lean += block

    def term_row(func, sign):
        row = np.zeros(ncols)
        for a, s in func.terms:
            row[next(iter(s)) if len(s) == 1 else y_cols[s]] += sign * a
        return row

    obj_row = term_row(instance.objective, -1.0)
    obj_row[t_col] = 1.0
    lean.append((obj_row, "<=", 0.0))
    lean += [(term_row(c, 1.0), ">=", 0.0) for c in instance.constraints]
    if instance.cardinality is not None:
        card = np.zeros(ncols)
        card[:n] = 1.0
        lean.append((card, "=", float(instance.cardinality)))
    coefs = [a for a, _ in instance.objective.terms]
    lower, upper, objective = np.zeros(ncols), np.ones(ncols), np.zeros(ncols)
    lower[t_col] = sum(min(a, 0.0) for a in coefs)
    upper[t_col] = sum(max(a, 0.0) for a in coefs)
    objective[t_col] = 1.0

    def lp(block):
        rows, senses, rhs = zip(*block) if block else ((), (), ())
        return simplex.LpModel("max", objective, np.array(rows), list(senses), np.array(rhs), lower, upper)

    return lp(lean), lp(deferred)


def former_cube_basis(n, supports):
    """The (order, slot, grid, a_ind, h_ind) of ``CubeBasis(n, supports)``, with each support's
    bitmask summed by shifts, as the package built them before its bit table."""
    a = n // 2
    low = (1 << a) - 1
    masks = [sum(1 << j for j in s) for s in supports]
    mixed = [k for k, m in enumerate(masks) if m & low]
    order = np.array(mixed + [k for k, m in enumerate(masks) if not m & low], dtype=int)
    groups, parts = {0: 0}, {}
    member = [groups.setdefault(masks[k] >> a, len(groups)) for k in mixed]
    part = [parts.setdefault(masks[k] & low, len(parts)) for k in mixed]
    g = len(groups)
    slot = np.array([p * g + q for p, q in zip(part, member)], dtype=int)
    rows, cols = np.arange(1 << a, dtype=np.int32), np.arange(1 << (n - a), dtype=np.int32)[:, None]
    m_a = np.array(list(parts), dtype=np.int32)[:, None]
    m_b = np.array(list(groups) + [m >> a for m in masks if not m & low], dtype=np.int32)
    a_ind = ((m_a & rows) == m_a).astype(float)
    h_ind = ((cols & m_b) == m_b)[:, g:].astype(float)
    return order, slot, (len(parts), g), a_ind, h_ind
