"""LP relaxations of binary polynomial problems.

Two builders: a hypograph model for max cut (one lifted product per edge)
and a lifted, linearized model for multilinear binary optimization with
optional sign constraints.  Both record a LiftMap so corner rays in the
full column space can be projected onto the (x, t) coordinates the cut
machinery works in.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .oracles import (
    Graph,
    MultilinearFunction,
    SSFunction,
    cut_oracle,
    ss_decompose,
    zero_oracle,
)
from .simplex import CornerPolyhedron, LpModel

logger = logging.getLogger(__name__)


@dataclass
class LiftMap:
    """Where each original coordinate lives among the model columns."""

    n: int
    x_cols: np.ndarray
    t_col: int
    y_cols: dict
    ncols: int

    def full_point(self, x, t) -> np.ndarray:
        """Embed binary x (products made exact) and a t value into column space.

        x is one point (n,) or a block of points (k, n); t is a scalar or
        one value per point.
        """
        x = np.asarray(x, dtype=float)
        z = np.zeros(x.shape[:-1] + (self.ncols,))
        z[..., self.x_cols] = x
        z[..., self.t_col] = t
        for support, col in self.y_cols.items():
            z[..., col] = x[..., sorted(support)].prod(axis=-1)
        return z


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


def build_maxcut_model(graph: Graph):
    """Hypograph LP for max cut: (LpModel, hypograph target, LiftMap).

    Columns x per vertex, y per edge, t last; rows are the per-edge
    linearizations plus t <= sum w (x_i + x_j - 2 y); objective max t.
    """
    oracle = cut_oracle(graph)  # rejects negative weights
    n, m = graph.n, graph.m
    ncols = n + m + 1
    x_cols = np.arange(n)
    t_col = ncols - 1
    y_cols = {frozenset((i, j)): n + e for e, (i, j, _) in enumerate(graph.edges)}

    names = [f"x{v + 1}" for v in range(n)]
    names += [f"y{i + 1}_{j + 1}" for i, j, _ in graph.edges]
    names += ["t"]

    rows, senses, rhs = [], [], []
    for e, (i, j, _) in enumerate(graph.edges):
        r, s, b = linearize_term((i, j), n + e, x_cols, ncols)
        rows.extend(r)
        senses.extend(s)
        rhs.extend(b)
    link = np.zeros(ncols)
    link[t_col] = 1.0
    for e, (i, j, w) in enumerate(graph.edges):
        link[i] -= w
        link[j] -= w
        link[n + e] += 2.0 * w
    rows.append(link)
    senses.append("<=")
    rhs.append(0.0)

    total = sum(w for _, _, w in graph.edges)
    lower = np.zeros(ncols)
    upper = np.ones(ncols)
    lower[t_col] = -2.0 * total
    upper[t_col] = 2.0 * total

    objective = np.zeros(ncols)
    objective[t_col] = 1.0
    model = LpModel("max", objective, np.array(rows), senses, np.array(rhs), lower, upper, names)
    target = SSFunction(oracle, zero_oracle(n), level=1)
    lift = LiftMap(n, x_cols, t_col, y_cols, ncols)
    logger.info("MODEL n=%d y=%d rows=%d targets=%d", n, m, model.nrows, 1)
    return model, target, lift


def build_mubo_model(instance: BmpInstance):
    """Lifted LP for a multilinear instance: (LpModel, targets, LiftMap).

    One shared y-column per distinct support of size >= 2 across the
    objective and all constraints; degree-1 terms use x directly.  Targets
    are the sign-split decompositions: the objective against its hypograph
    (level 1) and each constraint against its superlevel set (level 0).
    """
    n = instance.n
    all_funcs = [instance.objective] + list(instance.constraints)
    supports = sorted(
        {s for f in all_funcs for _, s in f.terms if len(s) >= 2},
        key=lambda s: (len(s), sorted(s)),
    )
    k = len(supports)
    ncols = n + k + 1
    x_cols = np.arange(n)
    t_col = ncols - 1
    y_cols = {s: n + i for i, s in enumerate(supports)}

    names = [f"x{v + 1}" for v in range(n)]
    names += ["y_" + "_".join(str(j + 1) for j in sorted(s)) for s in supports]
    names += ["t"]

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
    model = LpModel("max", objective, np.array(rows), senses, np.array(rhs), lower, upper, names)
    targets = [ss_decompose(instance.objective, level=1)]
    targets += [ss_decompose(c, level=0) for c in instance.constraints]
    lift = LiftMap(n, x_cols, t_col, y_cols, ncols)
    logger.info("MODEL n=%d y=%d rows=%d targets=%d", n, k, model.nrows, len(targets))
    return model, targets, lift


def project_corner(corner: CornerPolyhedron, lift: LiftMap) -> CornerPolyhedron:
    """Fill in the (x, t) restriction of the apex and every ray, in place.

    Ray order is preserved: the j-th projected ray still belongs to the
    j-th nonbasic variable, so step lengths line up with the eta forms.
    """
    if corner.apex.size != lift.ncols:
        raise ValueError(f"corner has {corner.apex.size} columns, lift map expects {lift.ncols}")
    corner.apex_x = corner.apex[lift.x_cols].copy()
    corner.apex_t = float(corner.apex[lift.t_col])
    for ray in corner.rays:
        ray.x_dir = ray.direction[lift.x_cols].copy()
        ray.t_dir = float(ray.direction[lift.t_col])
    return corner
