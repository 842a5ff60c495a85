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

    def infeasible(self):
        """The points that break a constraint or the cardinality: a (2^n,) mask, by bitmask. Guarded.

        None when the instance has neither, so no point is excluded.
        """
        check_capacity("brute force", self.n)
        if not self.constraints and self.cardinality is None:
            return None
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
    x = [int(x_cols[j]) for j in sorted(support)]
    k = len(x)
    if k < 2:
        raise ValueError(f"degree-1 terms use x directly; got support {sorted(support)}")
    rows, senses, rhs = np.zeros((k + 1, ncols)), [None] * (k + 1), np.zeros(k + 1)
    _write_products(rows, senses, rhs, [(x, y_col, range(k), k)])
    return rows, senses, rhs


def _write_products(rows, senses, rhs, products):
    """Write the rows of :func:`linearize_term` for each product, in place.

    ``products`` holds (x, y, upper, lower): row upper[j] becomes y - x_j <= 0
    and row ``lower`` y - sum_j x_j >= 1 - k, with x the k x columns of the
    product and y its column.  Every other entry of those rows must be 0 already.
    """
    r, c, v = [], [], []
    for x, y, upper, lower in products:
        k = len(x)
        r += [*upper, lower, *upper] + [lower] * k
        c += [y] * (k + 1) + x + x
        v += [1.0] * (k + 1) + [-1.0] * (2 * k)
        for i in upper:
            senses[i] = "<="
        senses[lower], rhs[lower] = ">=", 1.0 - k
    rows[r, c] = v


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
    unique = {s for f in all_funcs for _, s in f.terms if len(s) >= 2}
    keyed = sorted((len(s), sorted(s), s) for s in unique)  # by size, then members; no two tie
    supports = [s for _, _, s in keyed]
    ncols = n + len(supports) + 1
    x_cols = np.arange(n)
    t_col = ncols - 1
    y_cols = {s: n + i for i, s in enumerate(supports)}

    # the objective coefficient of each support, 0 where a constraint shares it
    weight = {s: a for a, s in instance.objective.terms}
    for c in instance.constraints:
        weight.update((s, 0.0) for _, s in c.terms)
    weights = [weight.get(s, 0.0) for s in supports]
    n_deferred = sum(len(s) if a < 0.0 else 1 if a > 0.0 else 0 for s, a in zip(supports, weights))
    n_lean = sum(len(s) + 1 for s in supports) - n_deferred
    n_lean += 1 + len(instance.constraints) + (instance.cardinality is not None)

    # one block for both LPs: the lean rows, then the deferred ones, each in build order
    rows = np.zeros((n_lean + n_deferred, ncols))
    senses, rhs = [None] * rows.shape[0], np.zeros(rows.shape[0])
    products, i, d = [], 0, n_lean  # (x, y, upper, lower) and the next lean and deferred row
    for (k, x, s), a in zip(keyed, weights):
        y = y_cols[s]  # and x_cols is the identity, so x holds the x columns
        if a < 0.0:  # pushed down: its y <= x_j rows never bind
            products.append((x, y, range(d, d + k), i))
            i, d = i + 1, d + k
        elif a > 0.0:  # pushed up: its >= row never binds
            products.append((x, y, range(i, i + k), d))
            i, d = i + k, d + 1
        else:
            products.append((x, y, range(i, i + k), i + k))
            i += k + 1
    _write_products(rows, senses, rhs, products)

    def term_row(func, sign, sense):
        # sign -1 moves the terms to the left of "t <= f", +1 keeps "f >= 0"
        nonlocal i
        for a, s in func.terms:
            rows[i, next(iter(s)) if len(s) == 1 else y_cols[s]] = sign * a
        senses[i] = sense
        i += 1

    rows[i, t_col] = 1.0
    term_row(instance.objective, -1.0, "<=")
    for func in instance.constraints:
        term_row(func, 1.0, ">=")
    if instance.cardinality is not None:
        rows[i, x_cols] = 1.0
        senses[i], rhs[i] = "=", float(instance.cardinality)

    coefs = [a for a, _ in instance.objective.terms]
    lower = np.zeros(ncols)
    upper = np.ones(ncols)
    lower[t_col] = sum(min(a, 0.0) for a in coefs)
    upper[t_col] = sum(max(a, 0.0) for a in coefs)

    objective = np.zeros(ncols)
    objective[t_col] = 1.0

    def lp(block):
        return LpModel("max", objective, rows[block], senses[block], rhs[block], lower, upper)

    lift = LiftMap(n, x_cols, t_col, y_cols, ncols, instance, lp(slice(n_lean, None)))
    return lp(slice(n_lean)), lift


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
