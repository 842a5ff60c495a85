"""Dense bounded dual simplex, started cold from the slack basis or warm
from the optimal basis of a row prefix.

Every structural column is boxed, so the slack basis with each nonbasic
column at its cost-preferred bound is dual feasible, which is all the
dual simplex needs to start.  Each pivot takes the basic variable with
the largest bound violation out and lets in the column of least
|d_j / alpha_rj| (ties to the lowest index) that keeps the reduced
costs' signs, among the columns whose signed direction (+1 free to rise,
-1 free to fall, 0 basic or fixed) moves the leaving variable to its
bound.  The basis inverse is kept explicitly and the optimal basis stays
on the solution, so a corner polyhedron (apex plus one ray per nonbasic
variable) can be extracted and handed to the cut machinery, and the next
solve can start from it after cut rows are appended.  That warm solve
takes the prefix rows' signs, bounds, costs and padded rows from the
prefix solver and builds only the new rows' parts.

Row conventions: row i has one logical column, column ncols + i, with
coefficient +1 for <= and = rows (a slack) and -1 for >= rows (a
surplus).  Slacks and surpluses live in [0, +inf); the logical of an =
row is fixed at [0, 0].  The logical columns exist only as this index
convention: the solver keeps the rows and the signs, never the matrix
[rows | diag(sign)], and multiplies by a logical column as by a scaled
unit vector.

The pivot path is part of the output contract.  The max-cut and
multilinear LPs are highly degenerate, so which optimal basis the dual
simplex reaches, and therefore the corner every intersection cut is
built from, turns on ties that the last bits of the basis inverse
decide.  Computing the rank-1 update of ``Binv`` in extended precision
with one final rounding (as a fused multiply-add does) instead of a
separate multiply and subtract moves the bound after ten rounds of
submodular cuts on a g05 n=20 instance (seed 1000) from 83.434 to
81.957.  Any rewrite of the pivot arithmetic must therefore produce the
same doubles in the same order: the same products, the same
subtractions, the same matrix-vector products and the same comparisons.

Three BLAS details decide whether the implicit logical columns give the
explicit matrix's doubles:

- OpenBLAS computes the last (width mod 4) outputs of ``v @ M`` on a
  separate path, so ``v @ rows`` rounds its tail columns unlike the
  structural part of ``v @ [rows | diag(sign)]``.  Products read a copy
  of the rows zero-padded to a multiple of 16 columns, which matches the
  explicit product byte for byte, and so does the padded rows times z
  for the explicit matrix times z when z's logical part is zero.
- A product with a column block rounds by the block's layout: numpy's
  ``A[:, idx]`` is Fortran-ordered, and a C-order copy of the same values
  changes ``block @ Binv``.  The column builder fills Fortran order.
- The corner's ``Binv @ columns`` stays one product over the gathered
  block; a structural product plus scaled logical columns moves bits at
  gemm tile edges.

A zero that a dot product gives is +0, while ``x * sign`` gives -0 for
x = 0 and sign -1, so the scaled logical columns add 0.0 to turn -0 into
+0 before it can reach the inverse.

The pivot path also depends on the number of BLAS threads, since
OpenBLAS need not round a product on several threads as it does on one.
With ``OPENBLAS_NUM_THREADS=1`` the seed-1 benchmark reads ``closed_gap``
0.2677 on ``maxcut-dense``, 0.8446 on ``maxcut-sparse`` and 0.58740 on
``mubo-validated``, against 0.2716, 0.8446 and 0.58739 with the default
threads on a 2-vCPU machine (10, 0 and 5 of the 16, 90 and 48 runs
differ).  The code sets no thread count, so outputs are reproducible for
a fixed seed and a fixed BLAS thread setting.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
REFACTOR_EVERY = 100

ROW_SENSES = ("<=", ">=", "=")


@dataclass
class LpModel:
    """Dense LP: optimize objective . z subject to rows and finite variable bounds."""

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
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.objective.size
        self.rows, self.rhs = _checked_rows(self.rows, self.row_senses, self.rhs, n)
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("bound arrays must match the column count")
        if not np.all(np.isfinite(self.lower)) or not np.all(np.isfinite(self.upper)):
            raise ValueError("every column needs finite lower and upper bounds")
        if np.any(self.lower > self.upper):
            raise ValueError("some lower bound exceeds its upper bound")

    @property
    def ncols(self) -> int:
        return self.objective.size

    @property
    def nrows(self) -> int:
        return self.rows.shape[0]

    def with_extra_rows(self, rows, senses, rhs) -> "LpModel":
        """Copy of the model with rows appended (used by the cut loop); only those rows are validated.

        They pass the constructor's row checks, with its messages; zero rows give an equal copy.
        """
        senses = list(senses)
        rows, rhs = _checked_rows(np.atleast_2d(rows), senses, np.atleast_1d(rhs), self.ncols)
        grown = copy.copy(self)
        grown.objective, grown.lower, grown.upper = self.objective.copy(), self.lower.copy(), self.upper.copy()
        grown.rows, grown.rhs = np.vstack([self.rows, rows]), np.concatenate([self.rhs, rhs])
        grown.row_senses = list(self.row_senses) + senses
        return grown

    def extends(self, prefix: "LpModel") -> bool:
        """Whether this model is ``prefix`` with zero or more rows appended."""
        k = prefix.nrows
        return (
            self.sense == prefix.sense
            and k <= self.nrows
            and list(self.row_senses[:k]) == list(prefix.row_senses)
            and all(np.array_equal(a, b) for a, b in (
                (self.objective, prefix.objective), (self.lower, prefix.lower),
                (self.upper, prefix.upper), (self.rows[:k], prefix.rows), (self.rhs[:k], prefix.rhs),
            ))
        )


def _checked_rows(rows, senses, rhs, ncols):
    """``rows`` and ``rhs`` as float arrays, once they fit ``ncols`` columns, the senses and each other.

    The row checks of :class:`LpModel`, for its rows and for appended ones.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0:
        rows = rows.reshape(0, ncols)
    rhs = np.asarray(rhs, dtype=float)
    if rows.shape[1] != ncols:
        raise ValueError(f"rows have {rows.shape[1]} columns, objective has {ncols}")
    if len(senses) != rows.shape[0] or rhs.size != rows.shape[0]:
        raise ValueError("row count mismatch between rows, senses and rhs")
    for s in senses:
        if s not in ROW_SENSES:
            raise ValueError(f"unknown row sense {s!r}")
    if not np.isfinite(rows).all() or not np.isfinite(rhs).all():
        raise ValueError("row data must be finite")
    return rows, rhs


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


class _DualSimplex:
    """One solve: the columns of ``model`` and a dual feasible basis to pivot from.

    ``dirn`` is the one record of each column's placement: +1 nonbasic at
    its lower bound, -1 nonbasic at its upper bound, 0 basic or fixed.
    The constraint matrix [rows | diag(sign)] is never formed: logical
    column n + i holds ``sign[i]`` at row i and nothing else.
    ``_columns``, ``_times_matrix``, ``_matrix_times`` and
    ``_binv_column`` are the only readers of the matrix, and each gives
    the explicit product's doubles (``_matrix_times`` when the logical
    part of its vector is zero; see the module docstring).
    """

    def __init__(self, model: LpModel, prefix: "_DualSimplex" = None, max_iters=None):
        self.model = model
        m, n = model.nrows, model.ncols
        self.m = m
        self.nstruct = n
        self.N = n + m
        # a warm start takes the prefix rows' parts from the prefix solver and builds the new rows'
        if prefix is None:
            k, sign, lo, hi = 0, (), model.lower, model.upper
            cost = (-1.0 if model.sense == "max" else 1.0) * model.objective  # always minimized
        else:
            k, sign, lo, hi, cost = prefix.m, prefix.sign, prefix.lo, prefix.hi, prefix.cost
        senses = model.row_senses[k:]
        zero = np.zeros(m - k)
        self.sign = np.concatenate([sign, [-1.0 if s == ">=" else 1.0 for s in senses]])  # each row's logical
        # zero-padded to a multiple of 16 columns, so that BLAS computes every
        # structural column of a product on its main path, as with the explicit matrix
        self.rows_pad = np.zeros((m, -(-n // 16) * 16))
        if prefix is not None:
            self.rows_pad[:k] = prefix.rows_pad
        self.rows_pad[k:, :n] = model.rows[k:]
        self.lo = np.concatenate([lo, zero])
        self.hi = np.concatenate([hi, [0.0 if s == "=" else math.inf for s in senses]])
        self.cost = np.concatenate([cost, zero])
        self.max_iters = max(5000, 50 * (m + self.N)) if max_iters is None else max_iters
        self.iterations = 0
        if prefix is None:
            self._slack_basis()
        else:
            self._extend(prefix)

    # -- the constraint matrix ---------------------------------------------

    def _columns(self, idx, first=0):
        """Columns ``idx`` of the constraint matrix from row ``first`` on.

        Fortran order, the layout numpy gives ``A[first:][:, idx]``: a
        product with a C-order copy of the same values rounds differently.
        A logical column's one entry is in the block only when its row is;
        a warm start's block, the new rows under the old basis, has none.
        """
        n = self.nstruct
        block = np.zeros((self.m - first, idx.size), order="F")
        struct = idx < n
        block[:, struct] = self.model.rows[first:, idx[struct]]
        k = (idx >= n + first).nonzero()[0]
        if k.size:
            i = idx[k] - n
            block[i - first, k] = self.sign[i]
        return block

    def _times_matrix(self, v):
        """v @ A.  ``+ 0.0`` turns the -0 of ``v * sign`` into the +0 a dot product gives."""
        n = self.nstruct
        out = np.empty(self.N)
        out[:n] = (v @ self.rows_pad)[:n]
        np.multiply(v, self.sign, out=out[n:])
        out[n:] += 0.0
        return out

    def _matrix_times(self, z):
        """A @ z, the explicit product's doubles whenever z's logical part is zero."""
        n = self.nstruct
        zpad = np.zeros(self.rows_pad.shape[1])
        zpad[:n] = z[:n]
        return self.rows_pad @ zpad + self.sign * z[n:]

    def _binv_column(self, q):
        """Binv @ A[:, q], the entering column in basis coordinates."""
        n = self.nstruct
        if q < n:
            return self.Binv @ self.model.rows[:, q]
        return self.Binv[:, q - n] * self.sign[q - n] + 0.0

    # -- bases ---------------------------------------------------------------

    def _slack_basis(self):
        """Every logical basic, every structural at the bound its cost prefers."""
        n, m = self.nstruct, self.m
        up = self.cost[:n] < 0.0
        fixed = self.lo[:n] == self.hi[:n]
        self.dirn = np.concatenate([np.where(fixed, 0.0, np.where(up, -1.0, 1.0)), np.zeros(m)])
        self.val = np.concatenate([np.where(up, self.hi[:n], self.lo[:n]), np.zeros(m)])
        self.basis = n + np.arange(m)
        self.Binv = np.diag(self.sign)  # a +-1 diagonal is its own inverse
        self.since_refactor = 0
        self._basic_values()
        self._reduced_costs()

    def _extend(self, old: "_DualSimplex"):
        """The optimal basis of the row prefix ``old``, plus each new row's logical.

        The new logicals enter basic at sign * (rhs - a.z), which is negative
        on a row the old optimum violates, and the inverse grows as
        [[Binv, 0], [-S a_B Binv, S]] with S = diag(sign) of the new rows.
        Their costs are zero, so every reduced cost stays as it was.
        """
        k, n = old.m, self.nstruct
        new = np.arange(k, self.m)
        s = self.sign[k:]
        self.basis = np.concatenate([old.basis, n + new])
        self.dirn = np.concatenate([old.dirn, np.zeros(new.size)])
        self.val = np.concatenate([old.val, s * (self.model.rhs[k:] - self.model.rows[new] @ old.val[:n])])
        self.Binv = np.zeros((self.m, self.m))
        self.Binv[:k, :k] = old.Binv
        self.Binv[k:, :k] = -s[:, None] * (self._columns(old.basis, first=k) @ old.Binv)
        self.Binv[new, new] = s
        self.since_refactor = old.since_refactor
        self.d = np.concatenate([old.d, np.zeros(new.size)])

    def _refactor(self):
        try:
            self.Binv = np.linalg.inv(self._columns(self.basis))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular basis during refactorization: {exc}") from exc
        self.since_refactor = 0
        self._basic_values()
        self._reduced_costs()

    def _basic_values(self):
        nb = self.val.copy()
        nb[self.basis] = 0.0
        self.val[self.basis] = self.Binv @ (self.model.rhs - self._matrix_times(nb))

    def _reduced_costs(self):
        self.d = self.cost - self._times_matrix(self.cost[self.basis] @ self.Binv)

    # -- core loop ---------------------------------------------------------

    def _iterate(self) -> str:
        """Dual pivots until the basic values are within their bounds.

        The basic values and their bounds (``xb``, ``lo_b``, ``hi_b``, in
        basis order) and ``dirn`` are updated entry by entry; ``val`` gets
        the basic values back before a refactor and on return.  A column
        can enter when alpha * dirn < -PIVOT_TOL if the leaving variable
        rises, > PIVOT_TOL if it falls.
        """
        m, basis, dirn = self.m, self.basis, self.dirn
        movable = self.lo != self.hi
        xb, lo_b, hi_b = self.val[basis], self.lo[basis], self.hi[basis]
        buf = np.empty((m, m))  # rank-1 update term of Binv, reused every pivot
        status = OPTIMAL
        while m:
            below = lo_b - xb
            viol = np.maximum(below, xb - hi_b)
            r = int(viol.argmax())
            if viol[r] <= FEAS_TOL:
                break
            if self.iterations >= self.max_iters:
                raise NumericError(f"simplex iteration cap {self.max_iters} reached (m={m}, n={self.N})")
            # the leaving variable rises to its lower bound (up) or falls to its upper bound
            up = below[r] > 0.0
            alpha = self._times_matrix(self.Binv[r])
            drive = alpha * dirn
            idx = (drive < -PIVOT_TOL if up else drive > PIVOT_TOL).nonzero()[0]
            if idx.size == 0:
                status = INFEASIBLE
                break
            q = int(idx[np.abs(self.d[idx] / alpha[idx]).argmin()])
            w = self._binv_column(q)
            if abs(w[r]) < PIVOT_TOL:
                raise NumericError(f"vanishing pivot {w[r]} in column {q}")
            leaving = basis[r]
            bound = lo_b[r] if up else hi_b[r]
            step = (xb[r] - bound) / w[r]
            entering = self.val[q] + step
            xb -= step * w
            xb[r], lo_b[r], hi_b[r] = entering, self.lo[q], self.hi[q]
            self.val[leaving] = bound
            dirn[leaving] = (1.0 if up else -1.0) if movable[leaving] else 0.0
            basis[r] = q
            dirn[q] = 0.0
            self.d -= (self.d[q] / alpha[q]) * alpha
            self.d[q] = 0.0
            self._update_inverse(r, w, buf)
            self.iterations += 1
            self.since_refactor += 1
            if self.since_refactor >= REFACTOR_EVERY:
                self.val[basis] = xb
                self._refactor()
                xb = self.val[basis]
        self.val[basis] = xb
        return status

    def solve(self) -> LpSolution:
        """Pivot to the optimum and certify it.

        A certificate that fails after pivoting gets one more chance: the
        inverse is refactored from the basis and the pivots go on from
        there.  A second failure raises.
        """
        for retry in (True, False):
            if self._iterate() == INFEASIBLE:
                return LpSolution(status=INFEASIBLE, iterations=self.iterations)
            try:
                self._verify()
                break
            except NumericError:
                if not retry:
                    raise
                self._refactor()
        x = self.val[: self.nstruct].copy()
        return LpSolution(
            status=OPTIMAL,
            x=x,
            objective=float(self.model.objective @ x),
            iterations=self.iterations,
            basis=self.basis.copy(),
            _state=self,
        )

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
        """Optimality certificate: primal and dual feasibility, equal objectives; NaN fails each check."""
        resid = self._matrix_times(self.val) - self.model.rhs
        if self.m and not np.max(np.abs(resid)) <= 100 * FEAS_TOL:
            raise NumericError(f"row residual {np.max(np.abs(resid)):.3e} after optimization")
        worst = np.maximum(self.lo - self.val, self.val - self.hi).max(initial=0.0)
        if not worst <= 100 * FEAS_TOL:
            raise NumericError(f"bound violation {worst:.3e} after optimization")
        y = self.cost[self.basis] @ self.Binv
        d = self.cost - self._times_matrix(y)
        nb = np.ones(self.N, dtype=bool)
        nb[self.basis] = False
        # moving a nonbasic column off its bound must not pay: d >= 0 at a lower bound, <= 0 at an upper
        gain = -(self.dirn * d)[self.dirn != 0.0]
        if not gain.max(initial=0.0) <= FEAS_TOL * (1.0 + np.abs(self.cost).max(initial=0.0)):
            raise NumericError(f"reduced cost {gain.max():.3e} of the wrong sign at the optimum")
        # read from dirn, not val, so a nonbasic value off its bound fails the objective check
        at = np.where(self.dirn < 0.0, self.hi, self.lo)[nb]
        primal = float(self.cost @ self.val)
        dual = float(y @ self.model.rhs + d[nb] @ at)
        if not abs(primal - dual) <= FEAS_TOL * (1.0 + abs(primal)):
            raise NumericError(f"primal objective {primal!r} and dual objective {dual!r} differ")


def solve(model: LpModel, warm: LpSolution = None) -> LpSolution:
    """Solve the LP; status is optimal or infeasible.

    ``warm``, an optimal solution of a model that ``model`` extends by
    appended rows, starts the dual simplex from its basis.
    """
    if warm is None:
        return _DualSimplex(model).solve()
    if warm.status != OPTIMAL or not model.extends(warm._state.model):
        raise ValueError("a warm start needs an optimal solution of a row prefix of the model")
    return _DualSimplex(model, warm._state).solve()


def corner(solution: LpSolution) -> CornerPolyhedron:
    """Corner relaxation at the optimal basis: apex plus one ray per nonbasic.

    Columns fixed by their bounds contribute no ray.  The eta forms read
    the rows of the model that was solved.
    """
    if solution.status != OPTIMAL:
        raise ValueError(f"corner extraction needs an optimal solution, got {solution.status}")
    st = solution._state
    n = st.nstruct
    nb = np.flatnonzero(st.dirn)  # ascending: the structural columns come first
    k, ns = nb.size, int(np.searchsorted(nb, n))
    delta = st.dirn[nb]
    sj, ds, li = nb[:ns], delta[:ns], nb[ns:] - n
    bound_rays = np.arange(ns)
    directions = np.zeros((k, n))
    directions[bound_rays, sj] = ds
    basic = np.flatnonzero(st.basis < n)
    # one product over the whole gathered block: splitting it moves bits at gemm tile edges
    moves = -delta[:, None] * (st.Binv @ st._columns(nb)).T
    directions[:, st.basis[basic]] = moves[:, basic]

    # eta = delta (z_j - bound) for a structural column, the row's slack
    # rhs - a.z for a <= row and its surplus a.z - rhs for a >= row
    eta_coef = np.zeros((k, n))
    eta_off = np.empty(k)
    eta_coef[bound_rays, sj] = ds
    eta_off[:ns] = -ds * np.where(ds > 0.0, st.lo[sj], st.hi[sj])
    sign = st.sign[li]
    eta_coef[ns:] = -sign[:, None] * st.model.rows[li]
    eta_off[ns:] = sign * st.model.rhs[li]
    return CornerPolyhedron(
        apex=solution.x.copy(),
        columns=nb,
        directions=directions,
        eta_coef=eta_coef,
        eta_off=eta_off,
    )
