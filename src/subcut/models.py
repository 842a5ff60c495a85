"""LP relaxations of binary polynomial problems.

One builder, :func:`build_model`: the lifted, linearized LP of a
multilinear objective with optional sign constraints, one y column per
product.  Max cut is its quadratic case: a max-cut instance is loaded
as its cut polynomial, one product per edge.  The model records a
LiftMap so corner rays in the full column space can be projected onto
the (x, t) coordinates the cut machinery works in, and so the root loop
knows which linearization rows the objective can never make tight: it
starts without them and adds back only those an optimum violates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import check_capacity
from .oracles import MultilinearFunction, cube_table, ss_decompose
from .simplex import CornerPolyhedron, LpModel

logger = logging.getLogger(__name__)


@dataclass
class LiftMap:
    """Where each original coordinate lives among the model columns.

    ``instance`` is the instance the model lifts; cut validation reads its
    objective, constraints and cardinality.  ``deferred`` is an LpModel over
    the model's columns holding the rows the objective can never make tight
    (see :func:`build_model`); None defers nothing.
    """

    n: int
    x_cols: np.ndarray
    t_col: int
    y_cols: dict
    ncols: int
    instance: BmpInstance = None
    deferred: LpModel = None


@dataclass
class BmpInstance:
    """Multilinear objective with optional sign constraints (each >= 0)."""

    objective: MultilinearFunction
    constraints: list = field(default_factory=list)
    cardinality: int = None

    def __post_init__(self):
        for c in self.constraints:
            if c.n != self.objective.n:
                raise ValueError(f"constraint dimension {c.n} != objective dimension {self.objective.n}")

    @property
    def n(self) -> int:
        return self.objective.n

    def infeasible(self) -> np.ndarray:
        """The points that break a constraint or the cardinality: a (2^n,) mask, by bitmask. Guarded."""
        check_capacity("brute force", self.n)
        out = np.zeros(1 << self.n, dtype=bool)
        for c in self.constraints:
            out |= cube_table(c) < 0.0
        if self.cardinality is not None:
            out |= np.bitwise_count(np.arange(1 << self.n)) != self.cardinality
        return out


def linearize_term(support, y_col: int, x_cols, ncols: int):
    """Exact-at-binary rows tying column y_col to the product over ``support``.

    One row y <= x_j per member, plus y >= sum x_j - |support| + 1.
    """
    support = sorted(int(j) for j in support)
    k = len(support)
    if k < 2:
        raise ValueError(f"degree-1 terms use x directly; got support {support}")
    rows = np.zeros((k + 1, ncols))
    rows[:, y_col] = 1.0
    for i, j in enumerate(support):
        rows[i, x_cols[j]] = rows[k, x_cols[j]] = -1.0
    return rows, ["<="] * k + [">="], np.array([0.0] * k + [1.0 - k])


def build_model(instance: BmpInstance):
    """Lifted LP of a multilinear instance: (LpModel, targets, LiftMap).

    Targets are the sign-split decompositions: the objective against its
    hypograph (level 1) and each constraint against its superlevel set
    (level 0).  For a cut polynomial the one target is the polynomial
    itself with an empty f2.

    The LP is the lean one: the linearization rows the objective can never
    make tight are left out and held, in build order, in the LpModel
    ``LiftMap.deferred``; the LP with them appended is the full lifted LP.
    Maximizing t <= sum a_S y_S pushes a product with a < 0 down, so only
    its >= row can bind, and one with a > 0 up, so only its y <= x_j rows
    can.  A support that appears in a constraint, or has no objective
    term, defers nothing.
    """
    model, lift = _lifted_lp(instance)
    targets = [ss_decompose(instance.objective, level=1)]
    targets += [ss_decompose(c, level=0) for c in instance.constraints]
    rows = model.nrows + lift.deferred.nrows
    logger.info("MODEL n=%d y=%d rows=%d targets=%d", instance.n, len(lift.y_cols), rows, len(targets))
    return model, targets, lift


def _lifted_lp(instance: BmpInstance):
    """The lean lifted, linearized LP of a multilinear instance: (LpModel, LiftMap).

    One shared y-column per distinct support of size >= 2 across the
    objective and all constraints; degree-1 terms use x directly.  Rows
    are the linearizations, then t <= objective, one row per constraint
    and the cardinality row; the objective is max t.  Each linearization
    row that :func:`build_model` defers goes to ``LiftMap.deferred``
    instead.
    """
    n = instance.n
    all_funcs = [instance.objective] + list(instance.constraints)
    supports = sorted(
        {s for f in all_funcs for _, s in f.terms if len(s) >= 2},
        key=lambda s: (len(s), sorted(s)),
    )
    ncols = n + len(supports) + 1
    x_cols = np.arange(n)
    t_col = ncols - 1
    y_cols = {s: n + i for i, s in enumerate(supports)}

    # the objective coefficient of each support, 0 where a constraint shares it
    weight = {s: a for a, s in instance.objective.terms}
    for c in instance.constraints:
        weight.update((s, 0.0) for _, s in c.terms)
    lean, deferred = [], []  # (row, sense, rhs) of each block, in build order
    for s in supports:
        a = weight.get(s, 0.0)
        rows = list(zip(*linearize_term(s, y_cols[s], x_cols, ncols)))
        k = len(s)  # rows[:k] are the y <= x_j rows, rows[k] the >= row
        if a < 0.0:  # pushed down: its y <= x_j rows never bind
            deferred += rows[:k]
            lean.append(rows[k])
        elif a > 0.0:  # pushed up: its >= row never binds
            lean += rows[:k]
            deferred.append(rows[k])
        else:
            lean += rows

    def term_row(func, sign):
        # sign -1 moves the terms to the left of "t <= f", +1 keeps "f >= 0"
        row = np.zeros(ncols)
        for a, s in func.terms:
            col = x_cols[next(iter(s))] if len(s) == 1 else y_cols[s]
            row[col] += sign * a
        return row

    obj_row = term_row(instance.objective, -1.0)
    obj_row[t_col] = 1.0

    lean.append((obj_row, "<=", 0.0))
    lean += [(term_row(func, 1.0), ">=", 0.0) for func in instance.constraints]
    if instance.cardinality is not None:
        card = np.zeros(ncols)
        card[x_cols] = 1.0
        lean.append((card, "=", float(instance.cardinality)))

    coefs = [a for a, _ in instance.objective.terms]
    lower = np.zeros(ncols)
    upper = np.ones(ncols)
    lower[t_col] = sum(min(a, 0.0) for a in coefs)
    upper[t_col] = sum(max(a, 0.0) for a in coefs)

    objective = np.zeros(ncols)
    objective[t_col] = 1.0

    def lp(block):
        rows, senses, rhs = zip(*block) if block else ((), (), ())
        return LpModel("max", objective, np.array(rows), list(senses), np.array(rhs), lower, upper)

    return lp(lean), LiftMap(n, x_cols, t_col, y_cols, ncols, instance, lp(deferred))


def project_corner(corner: CornerPolyhedron, lift: LiftMap) -> CornerPolyhedron:
    """Fill in the (x, t) restriction of the apex and of every ray, in place.

    ``x_dir`` is (rays x n) and ``t_dir`` is (rays,), row-aligned with the
    corner, so row k of either still belongs to nonbasic ``columns[k]``
    and step lengths line up with the eta forms.  ``x_dir`` is made
    C-contiguous: its rows are the ray vectors dotted with subgradients,
    and a strided row can round those dot products differently.
    """
    if corner.apex.size != lift.ncols:
        raise ValueError(f"corner has {corner.apex.size} columns, lift map expects {lift.ncols}")
    corner.apex_x = corner.apex[lift.x_cols].copy()
    corner.apex_t = float(corner.apex[lift.t_col])
    corner.x_dir = np.ascontiguousarray(corner.directions[:, lift.x_cols])
    corner.t_dir = corner.directions[:, lift.t_col].copy()
    return corner
