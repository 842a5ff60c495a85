"""Dense bounded-variable primal simplex.

Two phases with artificial columns, Dantzig pricing with a switch to
Bland's rule after a budget of degenerate pivots, and an explicitly
maintained basis inverse.  The optimal basis is kept on the solution so
a corner polyhedron (apex plus one ray per nonbasic variable) can be
extracted and handed to the cut machinery.

Row conventions: equality rows get no slack; <= rows get a slack with
coefficient +1; >= rows get a surplus with coefficient -1.  Slack and
surplus variables live in [0, +inf).

The pivot path is part of the output contract.  The max-cut and
multilinear LPs are highly degenerate, so which optimal basis the
simplex reaches, and therefore the corner every intersection cut is
built from, turns on ties that the last bits of the basis inverse
decide.  Computing the rank-1 update of ``Binv`` with a fused
multiply-add (as the BLAS rank-1 update routine does) instead of a
separate multiply and subtract changes single entries by about 1e-31,
and on a g05 n=20 instance (seed 1000, submodular cuts) moves the bound
after cuts from 84.3659 to 87.0254.  Any rewrite of the pivot arithmetic
must therefore produce the same doubles in the same order: the same
products, the same subtractions, the same matrix-vector products and the
same comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FEAS_TOL = 1e-7
COST_TOL = 1e-9
PIVOT_TOL = 1e-9
DEGEN_TOL = 1e-10
REFACTOR_EVERY = 100

ROW_SENSES = ("<=", ">=", "=")


@dataclass
class LpModel:
    """Dense LP: optimize objective . z subject to rows and variable bounds."""

    sense: str
    objective: np.ndarray
    rows: np.ndarray
    row_senses: list
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")
        self.objective = np.asarray(self.objective, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.size == 0:
            self.rows = self.rows.reshape(0, self.objective.size)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.objective.size
        if self.rows.shape[1] != n:
            raise ValueError(f"rows have {self.rows.shape[1]} columns, objective has {n}")
        if len(self.row_senses) != self.rows.shape[0] or self.rhs.size != self.rows.shape[0]:
            raise ValueError("row count mismatch between rows, senses and rhs")
        for s in self.row_senses:
            if s not in ROW_SENSES:
                raise ValueError(f"unknown row sense {s!r}")
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("bound arrays must match the column count")
        if np.any(self.lower > self.upper):
            raise ValueError("some lower bound exceeds its upper bound")
        if not np.all(np.isfinite(self.rows)) or not np.all(np.isfinite(self.rhs)):
            raise ValueError("row data must be finite")

    @property
    def ncols(self) -> int:
        return self.objective.size

    @property
    def nrows(self) -> int:
        return self.rows.shape[0]

    def with_extra_rows(self, rows, senses, rhs) -> "LpModel":
        """Copy of the model with rows appended (used by the cut loop)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        return LpModel(
            self.sense,
            self.objective.copy(),
            np.vstack([self.rows, rows]),
            list(self.row_senses) + list(senses),
            np.concatenate([self.rhs, np.atleast_1d(rhs)]),
            self.lower.copy(),
            self.upper.copy(),
        )


@dataclass
class LpSolution:
    status: str
    x: np.ndarray = None
    objective: float = None
    iterations: int = 0
    basis: np.ndarray = None
    _state: object = None


@dataclass
class CornerPolyhedron:
    """Apex and rays of the LP basis relaxation, in structural coordinates.

    One row per ray, in ascending order of the nonbasic column it moves:
    row k belongs to column ``columns[k]`` (a bound ray when that is a
    structural column, below the model's column count, and a slack or
    surplus ray otherwise).  ``directions[k]`` is the movement of the
    structural variables per unit of the nonbasic displacement eta, and
    eta itself is the affine function eta(z) = eta_coef[k] . z +
    eta_off[k] of the structural variables, which is what lets a cut
    stated in ray multipliers be mapped back.  The (x, t) restriction,
    ``apex_x``, ``apex_t``, ``x_dir`` (rays x n) and ``t_dir`` (rays,),
    is filled in by the model layer's projection.
    """

    apex: np.ndarray
    columns: np.ndarray
    directions: np.ndarray
    eta_coef: np.ndarray
    eta_off: np.ndarray
    apex_x: np.ndarray = None
    apex_t: float = None
    x_dir: np.ndarray = None
    t_dir: np.ndarray = None

    @property
    def nrays(self) -> int:
        return self.columns.size


# column kind codes
_KIND_STRUCT = 0
_KIND_SLACK = 1
_KIND_SURPLUS = 2
_KIND_ARTIFICIAL = 3

# placement codes
_BASIC = 0
_AT_LOWER = 1
_AT_UPPER = 2
_FREE = 3


def _ratio_test(rate, bvals, blo, bhi, basis):
    """First basic variable to reach a bound: (row_step, block, side).

    ``rate`` is the movement of the basic values per unit step of the
    entering variable.  Rows whose value rises (rate > PIVOT_TOL) and have
    a finite upper bound are scanned first, then rows whose value falls
    (rate < -PIVOT_TOL) and have a finite lower bound, each in ascending
    row order.  A row takes the block when its step (clipped at zero) is
    shorter by more than DEGEN_TOL, or within DEGEN_TOL and its basic
    column has the lower index.  The steps are the same IEEE divisions as
    row by row, and the scan runs over them as Python floats in the same
    order, so the outcome is that of the row-by-row rule.  block is -1
    (and row_step inf) when no row bounds the step.
    """
    up = np.flatnonzero((rate > PIVOT_TOL) & np.isfinite(bhi))
    down = np.flatnonzero((rate < -PIVOT_TOL) & np.isfinite(blo))
    row_step, block, side = math.inf, -1, 0
    block_col = -1  # no column index is below it, so no tie wins before a first block
    for rows, steps, row_side in (
        (up, (bhi[up] - bvals[up]) / rate[up], _AT_UPPER),
        (down, (bvals[down] - blo[down]) / -rate[down], _AT_LOWER),
    ):
        for i, s, col in zip(rows.tolist(), steps.tolist(), basis[rows].tolist()):
            s = max(s, 0.0)
            if s < row_step - DEGEN_TOL or (s <= row_step + DEGEN_TOL and col < block_col):
                row_step = min(s, row_step)
                block, side, block_col = i, row_side, col
    return row_step, block, side


class _BoundedSimplex:
    def __init__(self, model: LpModel, max_iters=None):
        self.model = model
        m, n = model.nrows, model.ncols
        self.m = m
        self.nstruct = n

        # one slack (+1) or surplus (-1) column per inequality row, in row order
        senses = np.array(model.row_senses, dtype=str)
        rows = np.flatnonzero(senses != "=")
        k = rows.size
        surplus = senses[rows] == ">="
        logical = np.zeros((m, k))
        logical[rows, np.arange(k)] = np.where(surplus, -1.0, 1.0)
        self.A = np.hstack([model.rows, logical])
        self.kinds = np.concatenate([np.full(n, _KIND_STRUCT), np.where(surplus, _KIND_SURPLUS, _KIND_SLACK)])
        self.lo = np.concatenate([model.lower, np.zeros(k)])
        self.hi = np.concatenate([model.upper, np.full(k, math.inf)])
        self.slack_row = np.concatenate([np.full(n, -1), rows])
        self.N = self.kinds.size
        if max_iters is None:
            max_iters = max(5000, 50 * (m + self.N))
        self.max_iters = max_iters
        self.iterations = 0

        # internal objective is always minimized
        sign = -1.0 if model.sense == "max" else 1.0
        self.cost = np.concatenate([sign * model.objective, np.zeros(self.N - n)])

    # -- setup ------------------------------------------------------------

    def _initial_point(self):
        has_lo = np.isfinite(self.lo)
        has_hi = np.isfinite(self.hi)
        val = np.where(has_lo, self.lo, np.where(has_hi, self.hi, 0.0))
        where = np.where(has_lo, _AT_LOWER, np.where(has_hi, _AT_UPPER, _FREE))
        return val, where

    def _install_basis(self, val, where):
        """One basic column per row: reuse slack/surplus when its sign fits,
        otherwise append an artificial column."""
        m = self.m
        resid = self.model.rhs - self.A @ val
        logical = np.flatnonzero(self.slack_row >= 0)
        own = self.slack_row[logical]
        v = resid[own] / self.A[own, logical]
        fits = v >= 0.0
        basis = np.full(m, -1)
        basis[own[fits]] = logical[fits]
        val[logical[fits]] = v[fits]
        where[logical[fits]] = _BASIC

        rows = np.flatnonzero(basis < 0)  # rows still without a basic column
        k = rows.size
        if k:
            art = np.zeros((m, k))
            art[rows, np.arange(k)] = np.where(resid[rows] >= 0, 1.0, -1.0)
            self.A = np.hstack([self.A, art])
            self.kinds = np.concatenate([self.kinds, np.full(k, _KIND_ARTIFICIAL)])
            self.lo = np.concatenate([self.lo, np.zeros(k)])
            self.hi = np.concatenate([self.hi, np.full(k, math.inf)])
            self.slack_row = np.concatenate([self.slack_row, rows])
            self.cost = np.concatenate([self.cost, np.zeros(k)])
            val = np.concatenate([val, np.abs(resid[rows])])
            where = np.concatenate([where, np.full(k, _BASIC)])
            basis[rows] = self.N + np.arange(k)
            self.N += k

        self.val = val
        self.where = where
        self.basis = basis
        # every basic column is a slack, surplus or artificial, so the basis
        # is a +-1 diagonal and its own inverse.  Scaling row i of the
        # identity by its sign gives the zeros the signs that solving B X = I
        # (np.linalg.inv) gives them, so the bits match a refactorization.
        self.Binv = self.A[np.arange(m), basis][:, None] * np.eye(m)
        self._basic_values()
        return k

    def _refactor(self):
        if self.m == 0:
            self.Binv = np.zeros((0, 0))
            return
        try:
            self.Binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular basis during refactorization: {exc}") from exc
        self._basic_values()

    def _basic_values(self):
        nb = self.val.copy()
        nb[self.basis] = 0.0
        self.val[self.basis] = self.Binv @ (self.model.rhs - self.A @ nb)

    # -- core loop ---------------------------------------------------------

    def _entering(self, d, allow, movable, bland):
        """Entering column, or -1 at optimality.

        movable = allow & (lo != hi), hoisted out of the pivot loop because
        the bounds change only between calls of _iterate.
        """
        eligible = (self.where == _AT_LOWER) & (d < -COST_TOL)
        eligible |= (self.where == _AT_UPPER) & (d > COST_TOL)
        eligible &= movable
        eligible |= (self.where == _FREE) & (np.abs(d) > COST_TOL) & allow
        idx = np.nonzero(eligible)[0]
        if idx.size == 0:
            return -1
        if bland:
            return int(idx[0])
        return int(idx[np.argmax(np.abs(d[idx]))])

    def _iterate(self, cost, allow):
        m = self.m
        degen_budget = 3 * (m + self.N)
        degen = 0
        bland = False
        since_refactor = 0
        movable = allow & (self.lo != self.hi)
        buf = np.empty((m, m))  # rank-1 update term of Binv, reused every pivot
        while True:
            if self.iterations >= self.max_iters:
                raise NumericError(
                    f"simplex iteration cap {self.max_iters} reached "
                    f"(m={m}, n={self.N}, degenerate={degen})"
                )
            y = cost[self.basis] @ self.Binv if m else np.zeros(0)
            d = cost - (y @ self.A if m else 0.0)
            j = self._entering(d, allow, movable, bland)
            if j < 0:
                return OPTIMAL
            delta = 1.0
            if self.where[j] == _AT_UPPER or (self.where[j] == _FREE and d[j] > 0):
                delta = -1.0
            w = self.Binv @ self.A[:, j] if m else np.zeros(0)

            # ratio test: own bound flip vs. first basic variable to hit a bound
            flip_step = math.inf
            if self.where[j] != _FREE and np.isfinite(self.lo[j]) and np.isfinite(self.hi[j]):
                flip_step = self.hi[j] - self.lo[j]
            rate = -delta * w  # movement of basic values per unit step
            bvals = self.val[self.basis]
            row_step, block, block_side = _ratio_test(
                rate, bvals, self.lo[self.basis], self.hi[self.basis], self.basis
            )

            if math.isinf(flip_step) and math.isinf(row_step):
                return UNBOUNDED
            # the entering variable must never overrun its own opposite bound
            if flip_step <= row_step:
                step, block = flip_step, -1
            else:
                step = row_step

            self.iterations += 1
            since_refactor += 1
            if step <= DEGEN_TOL:
                degen += 1
                if degen > degen_budget:
                    bland = True

            self.val[self.basis] = bvals + rate * step
            self.val[j] += delta * step
            if block < 0:
                # bound flip: nonbasic variable runs to its other bound
                self.where[j] = _AT_UPPER if delta > 0 else _AT_LOWER
                self.val[j] = self.hi[j] if delta > 0 else self.lo[j]
            else:
                leaving = self.basis[block]
                self.where[leaving] = block_side
                self.val[leaving] = self.hi[leaving] if block_side == _AT_UPPER else self.lo[leaving]
                self.basis[block] = j
                self.where[j] = _BASIC
                piv = w[block]
                if abs(piv) < PIVOT_TOL:
                    raise NumericError(f"vanishing pivot {piv} in column {j}")
                self._update_inverse(block, w, buf)
                if since_refactor >= REFACTOR_EVERY:
                    self._refactor()
                    since_refactor = 0

    # -- phases ------------------------------------------------------------

    def solve(self) -> LpSolution:
        val, where = self._initial_point()
        n_art = self._install_basis(val, where)
        real = self.kinds != _KIND_ARTIFICIAL

        if n_art:
            phase1 = np.where(self.kinds == _KIND_ARTIFICIAL, 1.0, 0.0)
            status = self._iterate(phase1, allow=real)
            if status != OPTIMAL:
                raise NumericError("phase 1 terminated without an optimum")
            art_level = float(phase1 @ self.val)
            if art_level > FEAS_TOL:
                return LpSolution(status=INFEASIBLE, iterations=self.iterations)
            self._evict_artificials()

        # artificials stay fixed at zero from here on
        art = self.kinds == _KIND_ARTIFICIAL
        self.lo[art] = 0.0
        self.hi[art] = 0.0
        self.val[art & (self.where != _BASIC)] = 0.0

        status = self._iterate(self.cost, allow=real)
        if status == UNBOUNDED:
            return LpSolution(status=UNBOUNDED, iterations=self.iterations)
        self._refactor()
        self._verify()
        x = self.val[: self.nstruct].copy()
        obj = float(self.model.objective @ x)
        return LpSolution(
            status=OPTIMAL,
            x=x,
            objective=obj,
            iterations=self.iterations,
            basis=self.basis.copy(),
            _state=self,
        )

    def _evict_artificials(self):
        """Pivot basic artificials out where possible; redundant rows keep theirs."""
        buf = np.empty((self.m, self.m))
        for pos in range(self.m):
            col = self.basis[pos]
            if self.kinds[col] != _KIND_ARTIFICIAL:
                continue
            row = self.Binv[pos, :] @ self.A
            candidates = np.nonzero(
                (np.abs(row) > 1e-7)
                & (self.kinds != _KIND_ARTIFICIAL)
                & (self.where != _BASIC)
            )[0]
            if candidates.size == 0:
                continue
            j = int(candidates[0])
            w = self.Binv @ self.A[:, j]
            self.where[col] = _AT_LOWER
            self.val[col] = 0.0
            self.basis[pos] = j
            self.where[j] = _BASIC
            self._update_inverse(pos, w, buf)
        self._refactor()

    def _update_inverse(self, pos, w, buf):
        """Binv after the column with Binv-image w enters at row pos.

        Row pos is divided by the pivot w[pos]; every other row i loses
        w[i] times the new row pos.  The products go to buf (m x m) and are
        subtracted from the whole matrix in place, and row pos is written
        back afterwards.  Each entry is the same product and the same
        subtraction as a row-by-row update, so no bit changes.  Spreading
        w over buf first and multiplying in place is faster than the
        broadcast product and gives the same bytes.
        """
        r = self.Binv[pos] / w[pos]
        np.copyto(buf, w[:, None])
        np.multiply(buf, r, out=buf)
        self.Binv -= buf
        self.Binv[pos] = r

    def _verify(self):
        resid = self.A @ self.val - self.model.rhs if self.m else np.zeros(0)
        if self.m and np.max(np.abs(resid)) > 100 * FEAS_TOL:
            raise NumericError(f"row residual {np.max(np.abs(resid)):.3e} after optimization")
        below = np.maximum(self.lo - self.val, 0.0)
        above = np.maximum(self.val - self.hi, 0.0)
        worst = max(below.max(initial=0.0), above.max(initial=0.0))
        if worst > 100 * FEAS_TOL:
            raise NumericError(f"bound violation {worst:.3e} after optimization")


def solve(model: LpModel, max_iters=None) -> LpSolution:
    """Solve the LP; status is one of optimal / infeasible / unbounded."""
    return _BoundedSimplex(model, max_iters=max_iters).solve()


def corner(solution: LpSolution) -> CornerPolyhedron:
    """Corner relaxation at the optimal basis: apex plus one ray per nonbasic.

    Columns fixed by their bounds contribute no ray.  A free nonbasic
    variable has no bound to anchor its ray and is rejected.  The eta
    forms read the rows of the model that was solved.
    """
    if solution.status != OPTIMAL:
        raise ValueError(f"corner extraction needs an optimal solution, got {solution.status}")
    st = solution._state
    n = st.nstruct
    nb = np.flatnonzero(
        (st.where != _BASIC) & (st.kinds != _KIND_ARTIFICIAL) & (st.lo != st.hi)
    )
    free = nb[st.where[nb] == _FREE]
    if free.size:
        raise ValueError(f"free nonbasic column {free[0]}; corner undefined without a bound")
    k = nb.size
    rows = np.arange(k)
    at_lower = st.where[nb] == _AT_LOWER
    delta = np.where(at_lower, 1.0, -1.0)
    full = np.zeros((k, st.N))
    full[rows, nb] = delta
    full[:, st.basis] = -delta[:, None] * (st.Binv @ st.A[:, nb]).T

    # eta = delta (z_j - bound) for a structural column, the row's slack
    # rhs - a.z for a <= row and its surplus a.z - rhs for a >= row
    eta_coef = np.zeros((k, n))
    eta_off = np.zeros(k)
    struct = st.kinds[nb] == _KIND_STRUCT
    sj = nb[struct]
    eta_coef[rows[struct], sj] = delta[struct]
    eta_off[struct] = -delta[struct] * np.where(at_lower[struct], st.lo[sj], st.hi[sj])
    logical = ~struct
    sign = np.where(st.kinds[nb[logical]] == _KIND_SLACK, -1.0, 1.0)
    i = st.slack_row[nb[logical]]
    eta_coef[logical] = sign[:, None] * st.model.rows[i]
    eta_off[logical] = -sign * st.model.rhs[i]
    return CornerPolyhedron(
        apex=solution.x.copy(),
        columns=nb,
        directions=full[:, :n].copy(),
        eta_coef=eta_coef,
        eta_off=eta_off,
    )
