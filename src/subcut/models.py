"""LP relaxations of binary polynomial problems.

One builder, :func:`build_model`: the lifted, linearized LP of a
multilinear objective with optional sign constraints, one y column per
product.  Max cut is its quadratic case: a max-cut instance is loaded
as its cut polynomial, one product per edge.  The model records a
LiftMap so corner rays in the full column space can be projected onto
the (x, t) coordinates the cut machinery works in.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .oracles import MultilinearFunction, cube_table, ss_decompose
from .simplex import CornerPolyhedron, LpModel

logger = logging.getLogger(__name__)


@dataclass
class LiftMap:
    """Where each original coordinate lives among the model columns.

    ``instance`` is the instance the model lifts; cut validation reads its
    objective, constraints and cardinality.
    """

    n: int
    x_cols: np.ndarray
    t_col: int
    y_cols: dict
    ncols: int
    instance: BmpInstance = None

    def terms(self, coef) -> list:
        """The x and y part of column coefficients as polynomial terms in x; t is left out."""
        terms = [(coef[col], {j}) for j, col in enumerate(self.x_cols)]
        return terms + [(coef[col], support) for support, col in self.y_cols.items()]


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

    def masked_table(self, poly: MultilinearFunction, fill: float) -> np.ndarray:
        """``cube_table(poly)`` with ``fill`` at every point that breaks a constraint or the cardinality."""
        values = cube_table(poly)
        for c in self.constraints:
            values[cube_table(c) < 0.0] = fill
        if self.cardinality is not None:
            ones = np.bitwise_count(np.arange(values.size)).reshape(values.shape, order="F")
            values[ones != self.cardinality] = fill
        return values


def linearize_term(support, y_col: int, x_cols, ncols: int):
    """Exact-at-binary rows tying column y_col to the product over ``support``.

    One row y <= x_j per member, plus y >= sum x_j - |support| + 1.
    """
    support = sorted(int(j) for j in support)
    if len(support) < 2:
        raise ValueError(f"degree-1 terms use x directly; got support {support}")
    rows, senses, rhs = [], [], []
    for j in support:
        row = np.zeros(ncols)
        row[y_col] = 1.0
        row[x_cols[j]] -= 1.0
        rows.append(row)
        senses.append("<=")
        rhs.append(0.0)
    low = np.zeros(ncols)
    low[y_col] = 1.0
    for j in support:
        low[x_cols[j]] -= 1.0
    rows.append(low)
    senses.append(">=")
    rhs.append(1.0 - len(support))
    return np.array(rows), senses, np.array(rhs)


def build_model(instance: BmpInstance):
    """Lifted LP of a multilinear instance: (LpModel, targets, LiftMap).

    Targets are the sign-split decompositions: the objective against its
    hypograph (level 1) and each constraint against its superlevel set
    (level 0).  For a cut polynomial the one target is the polynomial
    itself with an empty f2.
    """
    model, lift = _lifted_lp(instance)
    targets = [ss_decompose(instance.objective, level=1)]
    targets += [ss_decompose(c, level=0) for c in instance.constraints]
    logger.info("MODEL n=%d y=%d rows=%d targets=%d", instance.n, len(lift.y_cols), model.nrows, len(targets))
    return model, targets, lift


def _lifted_lp(instance: BmpInstance):
    """The lifted, linearized LP of a multilinear instance: (LpModel, LiftMap).

    One shared y-column per distinct support of size >= 2 across the
    objective and all constraints; degree-1 terms use x directly.  Rows
    are the linearizations, then t <= objective, one row per constraint
    and the cardinality row; the objective is max t.
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

    rows, senses, rhs = [], [], []
    for s in supports:
        r, se, b = linearize_term(s, y_cols[s], x_cols, ncols)
        rows.extend(r)
        senses.extend(se)
        rhs.extend(b)

    def term_row(func, sign):
        # sign -1 moves the terms to the left of "t <= f", +1 keeps "f >= 0"
        row = np.zeros(ncols)
        for a, s in func.terms:
            col = x_cols[next(iter(s))] if len(s) == 1 else y_cols[s]
            row[col] += sign * a
        return row

    obj_row = term_row(instance.objective, -1.0)
    obj_row[t_col] = 1.0

    rows.append(obj_row)
    senses.append("<=")
    rhs.append(0.0)
    for func in instance.constraints:
        rows.append(term_row(func, 1.0))
        senses.append(">=")
        rhs.append(0.0)
    if instance.cardinality is not None:
        card = np.zeros(ncols)
        card[x_cols] = 1.0
        rows.append(card)
        senses.append("=")
        rhs.append(float(instance.cardinality))

    coefs = [a for a, _ in instance.objective.terms]
    lower = np.zeros(ncols)
    upper = np.ones(ncols)
    lower[t_col] = sum(min(a, 0.0) for a in coefs)
    upper[t_col] = sum(max(a, 0.0) for a in coefs)

    objective = np.zeros(ncols)
    objective[t_col] = 1.0
    model = LpModel("max", objective, np.array(rows), senses, np.array(rhs), lower, upper)
    return model, LiftMap(n, x_cols, t_col, y_cols, ncols, instance)


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
