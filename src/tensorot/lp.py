"""Exact desk-scale ground truth via a two-phase revised simplex.

The transport LP is solved on the flattened tensor with one equality row
per (mode, first n-1 indices) pair plus a single total-mass row — the
minimal independent system.  The simplex reads the constraint matrix A
through two operations only: price every column (y @ A) and fetch one
column (A[:, j]).  It keeps the m x m basis inverse B^-1, the basic
values x_B and the basis indices, prices the real columns as
c - (c_B B^-1) A and updates B^-1 by one rank-one step per pivot.
Artificial r starts as sign(b_r) e_r, so no row is negated, and the
duals c_B B^-1 belong to the system as given.  An artificial that
phase 1 cannot drive out marks a redundant row and stays basic at zero.
Pricing has one rule: Dantzig's, switching to Bland's after
2*(rows+cols) pivots to rule out cycling.  ``iterations`` counts these
priced pivots of phases 1 and 2; the unpriced pivots of a crash start and
of driving artificials out are not counted.  The returned x_B is solved
afresh from the final basis matrix, with values within a mass-relative
tolerance of 0 set to 0, so that degenerate basics do not drift negative.

``solve_exact_tot`` starts from a crash basis (Bixby, ORSA J. Computing
1992): the cells of the greedy min-cost plan, which walks the cells by
ascending cost and gives each the smallest marginal remainder of its
indices, are pivoted one by one into the artificial row where B^-1 a is
largest.  The plan is feasible, so the artificials the crash leaves are
at zero, phase 1 is skipped, and phase 2 starts from a cheap vertex.  A
start whose basic solution has a negative entry past rounding is dropped
for the artificial basis, a safeguard no greedy start has needed in the
instances tried.  Where costs tie, the optimal vertex (and the last digits of the
value) can differ from the one the artificial start reaches.

A dense A is read by slicing and a single-threaded product.
``solve_exact_tot`` never forms A: the column of a cell has a one in the
row of each of its indices below n-1 and in the mass row, so y @ A is
the outer sum y_0 ⊕ ... ⊕ y_{d-1} of the per-mode duals (each padded
with 0 at index n-1) plus the mass dual.  An exact solve thus holds a
few vectors the size of the cost tensor and the m x m basis inverse.

A second front end decides whether a zero pattern admits a feasible plan
with that exact support by maximizing the minimum support entry t.
Writing the support entries as u = s + t with s, t >= 0 turns this into
max t subject to [A_sup | A_sup @ 1] (s, t) = b on the transport rows
alone: no slack or coupling rows, one extra column.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation
from .tensor import MarginalFamily, Tensor, _check_family, _outer_sum, inner

__all__ = [
    "SimplexResult",
    "ExactSolution",
    "simplex_minimize",
    "transport_constraints",
    "solve_exact_tot",
    "scalability_check",
]

DEFAULT_CAP = 100_000
CAP_ENV_VAR = "TENSOROT_LP_CAP"

_PIVOT_TOL = 1e-11
_FEAS_TOL = 1e-9
# An amount within this fraction of the mass counts as zero: a marginal
# entry the greedy walk has used up, or a basic value left by rounding.
_ZERO_RTOL = 1e-13
# The greedy walk filters the sorted cells in chunks of doubling size up
# to this many, so that Python only visits cells that are still live, and
# the chunk's index arrays stay small next to the cost tensor.
_WALK_CHUNK = 1024
# The pivot tolerances are absolute, so phase 2 prices a cost far from unit
# scale (the binary exponent of its largest magnitude beyond +-_COST_EXP)
# scaled into [1/2, 1) by a power of two, which is exact.
_COST_EXP = 10


def _check_cap(A: Tensor) -> None:
    """Refuse more variables than ``TENSOROT_LP_CAP``, read at each call."""
    raw = os.environ.get(CAP_ENV_VAR, str(DEFAULT_CAP))
    limit = int(raw) if raw.isdecimal() else 0
    if limit < 1:
        raise ContractViolation(f"{CAP_ENV_VAR} must be a positive integer, got {raw!r}")
    if A.size > limit:
        raise ContractViolation(f"problem has {A.size} variables, above the solver cap {limit}")


class SimplexError(RuntimeError):
    """The simplex loop failed (unbounded ray or iteration cap)."""


class InfeasibleError(SimplexError):
    """Phase 1 finished with positive artificial mass."""


@dataclass
class SimplexResult:
    x: np.ndarray
    value: float
    duals: Optional[np.ndarray]
    iterations: int


def _pivot(Binv, x_B, basis, row: int, col: int, column) -> None:
    """Exchange basis[row] for col, where column is B^-1 A[:, col]."""
    pivot_row = Binv[row] / column[row]
    step = x_B[row] / column[row]
    Binv -= column[:, None] * pivot_row
    Binv[row] = pivot_row
    x_B -= step * column
    x_B[row] = step
    basis[row] = col


class _DenseColumns:
    """A dense constraint matrix, read by slicing and one-thread pricing."""

    def __init__(self, A):
        self.A = A
        self.shape = A.shape

    def price(self, y):
        """y @ A on one thread.  OpenBLAS splits a product this wide over
        threads, and a pivot's time then swings with the load on the other core."""
        return np.einsum("i,ij->j", y, self.A)

    def column(self, j):
        return self.A[:, j]


def _choose_entering(reduced, use_bland) -> Optional[int]:
    if use_bland:
        idx = np.nonzero(reduced < -_PIVOT_TOL)[0]
        return int(idx[0]) if idx.size else None
    col = int(np.argmin(reduced))
    return col if reduced[col] < -_PIVOT_TOL else None


def _choose_leaving(x_B, basis, column) -> Optional[int]:
    rows = np.nonzero(column > _PIVOT_TOL)[0]
    if rows.size == 0:
        return None
    ratios = x_B[rows] / column[rows]
    best = ratios.min()
    ties = rows[ratios <= best + 1e-12]
    # smallest basis index among ties guards against cycling
    return int(ties[np.argmin(basis[ties])])


def _basic_values(A, b, basis) -> np.ndarray:
    """x_B solved afresh from the basis matrix, free of the drift of the
    rank-one updates, with entries within ``_ZERO_RTOL`` of max |b| set to 0."""
    m, ncols = A.shape
    B = np.zeros((m, m))
    for k, j in enumerate(basis):
        if j < ncols:
            B[:, k] = A.column(j)
        else:
            B[j - ncols, k] = -1.0 if b[j - ncols] < 0 else 1.0
    x_B = np.linalg.solve(B, b)
    x_B[np.abs(x_B) <= _ZERO_RTOL * np.abs(b).max(initial=0.0)] = 0.0
    return x_B


def _artificial_basis(b, ncols):
    """Artificial r is sign(b_r) e_r, so the starting point x_B = |b| is feasible."""
    return np.diag(np.where(b < 0, -1.0, 1.0)), np.abs(b), np.arange(ncols, ncols + b.size)


def _crash_basis(A, b, start):
    """The artificial basis with each start column pivoted into the
    artificial row where B^-1 a is largest in magnitude, or None when the
    resulting x_B has a negative entry.  A column whose entries in those
    rows are all within ``_PIVOT_TOL`` of 0 is skipped."""
    Binv, x_B, basis = _artificial_basis(b, A.shape[1])
    for col in start:
        rows = np.flatnonzero(basis >= A.shape[1])
        if rows.size == 0:
            break
        column = Binv @ A.column(col)
        row = rows[np.argmax(np.abs(column[rows]))]
        if abs(column[row]) > _PIVOT_TOL:
            _pivot(Binv, x_B, basis, row, col, column)
    x_B = _basic_values(A, b, basis)
    return (Binv, x_B, basis) if (x_B >= 0).all() else None


def _run_phase(A, cost, Binv, x_B, basis) -> int:
    """Pivot from a feasible basis until no real column prices out."""
    m, ncols = A.shape
    size = m + ncols  # one artificial column per row
    bland_after, max_iter = 2 * size, 2000 + 50 * size
    iterations = 0
    while True:
        # only real columns are priced: artificials never enter
        reduced = cost[:ncols] - A.price(cost[basis] @ Binv)
        col = _choose_entering(reduced, iterations >= bland_after)
        if col is None:
            return iterations
        column = Binv @ A.column(col)
        row = _choose_leaving(x_B, basis, column)
        if row is None:
            raise SimplexError("unbounded direction encountered")
        _pivot(Binv, x_B, basis, row, col, column)
        iterations += 1
        if iterations > max_iter:
            raise SimplexError(f"simplex did not finish within {max_iter} pivots")


def simplex_minimize(c, A_eq, b_eq, *, start=None) -> SimplexResult:
    """Minimize c @ x subject to A_eq @ x = b_eq, x >= 0.

    A_eq is a matrix, which is only read, or an implicit system with
    ``shape``, ``price(y)`` (y @ A_eq) and ``column(j)`` (A_eq[:, j]).
    ``start`` lists columns to pivot into the all-artificial basis before
    phase 1 (a crash start); those pivots are not priced, and a start
    whose basic solution is not feasible is dropped.  ``iterations``
    counts the priced pivots of phases 1 and 2 only.  ``duals`` solves the
    dual of the system as given; it is None when A_eq has a redundant row.
    """
    A = A_eq if hasattr(A_eq, "price") else _DenseColumns(np.asarray(A_eq, dtype=float))
    b = np.asarray(b_eq, dtype=float)
    c = np.asarray(c, dtype=float)
    m, ncols = A.shape
    crashed = None if start is None else _crash_basis(A, b, start)
    Binv, x_B, basis = crashed or _artificial_basis(b, ncols)

    # phase 1: minimize the artificial mass; a crash that left none is done
    cost = np.concatenate([np.zeros(ncols), np.ones(m)])
    iters = _run_phase(A, cost, Binv, x_B, basis) if cost[basis] @ x_B > 0 else 0
    phase1 = float(cost[basis] @ x_B)
    if phase1 > _FEAS_TOL * max(1.0, float(np.abs(b).sum())):
        raise InfeasibleError(f"infeasible system (phase-1 mass {phase1:.3e})")

    # drive zero-level artificials out of the basis; one that stays marks a
    # redundant row, whose row of B^-1 A is zero, so no ratio test picks it
    for r in np.nonzero(basis >= ncols)[0]:
        candidates = np.nonzero(np.abs(A.price(Binv[r])) > _PIVOT_TOL)[0]
        if candidates.size:
            col = int(candidates[0])
            _pivot(Binv, x_B, basis, r, col, Binv @ A.column(col))

    # phase 2: original costs, scaled exactly by 2**-k
    e = math.frexp(float(np.abs(c).max(initial=0.0)))[1]
    k = e if abs(e) > _COST_EXP else 0
    cost = np.concatenate([np.ldexp(c, -k), np.zeros(m)])
    iters += _run_phase(A, cost, Binv, x_B, basis)

    x_B = _basic_values(A, b, basis)
    x = np.zeros(ncols)
    real = basis < ncols
    x[basis[real]] = x_B[real]
    with np.errstate(over="ignore"):  # a dual past the float range reads inf
        duals = np.ldexp(cost[basis] @ Binv, k) if real.all() else None
    return SimplexResult(x=x, value=float(c @ x), duals=duals, iterations=iters)


@dataclass
class ExactSolution:
    plan: Tensor
    value: float
    duals: Optional[np.ndarray]
    iterations: int


def _mode_rows(j, index: np.ndarray, n: int):
    """Rows of the marginal constraints of modes ``j`` at axis indices ``index``.

    Index i < n-1 of mode j has row j*(n-1) + i; index n-1 has no row of
    its own (the total-mass row, last, stands in for it).  ``j`` is one
    mode or an array of modes shaped like ``index``.  Returns the rows of
    the kept pairs and the mask that keeps them.
    """
    kept = index < n - 1
    return (j * (n - 1) + index)[kept], kept


def _transport_system(P: MarginalFamily, cells: np.ndarray, ncols: int):
    """The transport system on the flat tensor cells ``cells``, one column
    each, zero-padded to ``ncols`` columns, and its right-hand side."""
    d, n = P.d, P.n
    A = np.zeros((d * (n - 1) + 1, ncols))
    for j, index in enumerate(np.unravel_index(cells, (n,) * d)):
        rows, kept = _mode_rows(j, index, n)
        A[rows, np.flatnonzero(kept)] = 1.0
    A[-1, :cells.size] = 1.0
    return A, _transport_rhs(P)


def _transport_rhs(P: MarginalFamily) -> np.ndarray:
    """Right-hand side of the transport rows: the kept marginal entries,
    then the total mass."""
    b = np.empty(P.d * (P.n - 1) + 1)
    rows, kept = _mode_rows(*np.indices(P.p.shape), P.n)
    b[rows] = P.p[kept]
    b[-1] = P.h
    return b


class _TransportColumns:
    """The A_eq of ``transport_constraints`` over all n**d cells, never formed."""

    def __init__(self, d: int, n: int):
        self.d, self.n = d, n
        self.shape = (d * (n - 1) + 1, n**d)
        self._rows, self._kept = _mode_rows(*np.indices((d, n)), n)
        # the row of index i of mode j, the mass row for i = n-1
        table = np.full((d, n), self.shape[0] - 1)
        table[self._kept] = self._rows
        self._table = table.tolist()

    def price(self, y):
        """y @ A as an outer sum, bit-identical to the dense product: each
        cell adds its d+1 duals in row order, and the dense sum only adds
        zeros between them."""
        Y = np.zeros((self.d, self.n))
        Y[self._kept] = y[self._rows]
        out = _outer_sum(Y)
        out += y[-1]
        return out.ravel()

    def column(self, cell):
        """A one in the mass row and in the row of each index, the indices
        peeled off the flat cell from the last mode."""
        col = np.zeros(self.shape[0])
        col[-1] = 1.0
        cell = int(cell)
        for rows in reversed(self._table):
            cell, i = divmod(cell, self.n)
            col[rows[i]] = 1.0
        return col


def transport_constraints(P: MarginalFamily):
    """Equality system of the transport polytope on the flattened tensor.

    Keeps the first n-1 marginal rows of every mode plus one total-mass
    row: d*(n-1)+1 independent equalities over n**d variables.
    """
    return _transport_system(P, np.arange(P.n**P.d), P.n**P.d)


def _greedy_cells(C: np.ndarray, P: MarginalFamily) -> np.ndarray:
    """Flat cells of the greedy min-cost plan, in the order they join.

    Walks the cells by ascending cost, ties in flat order.  A cell joins
    when each of its marginal entries has more than ``_ZERO_RTOL * P.h``
    left, and takes the smallest of those remainders.  Each joining cell
    uses up an entry, and the last one an entry of every mode, so the plan
    is feasible with at most d*(n-1)+1 cells, linearly independent.
    """
    order = np.argsort(C, axis=None, kind="stable")
    tol = _ZERO_RTOL * P.h
    rest = P.p.copy()
    left = rest.tolist()
    modes = np.arange(P.d)[:, None]
    cells, start, size = [], 0, 16
    while start < order.size and (rest[0] > tol).any():
        chunk = order[start:start + size]
        index = np.array(np.unravel_index(chunk, C.shape))
        live = (rest[modes, index] > tol).all(axis=0)
        # only the cells live at the chunk's start are visited one by one
        for cell, idx in zip(chunk[live].tolist(), index[:, live].T.tolist()):
            amount = min(left[j][i] for j, i in enumerate(idx))
            if amount > tol:
                cells.append(cell)
                for j, i in enumerate(idx):
                    left[j][i] -= amount
        rest = np.array(left)
        start, size = start + size, min(2 * size, _WALK_CHUNK)
    return np.array(cells, dtype=np.intp)


def solve_exact_tot(C: Tensor, P: MarginalFamily) -> ExactSolution:
    """Vertex-optimal plan and exact objective of the transport LP.

    The simplex starts from the cells of the greedy min-cost plan
    (``_greedy_cells``) crashed into the artificial basis.
    """
    _check_family(C, P)
    _check_cap(C)
    try:
        res = simplex_minimize(C.data.ravel(), _TransportColumns(P.d, P.n), _transport_rhs(P),
                               start=_greedy_cells(C.data, P))
    except InfeasibleError as exc:  # cannot happen for positive marginals
        raise RuntimeError(f"transport polytope reported infeasible: {exc}") from exc
    plan = Tensor._adopt(res.x.reshape(C.data.shape))
    value = inner(C, plan)
    return ExactSolution(plan=plan, value=value, duals=res.duals, iterations=res.iterations)


def scalability_check(A: Tensor, P: MarginalFamily) -> bool:
    """Can some feasible plan carry exactly the zero pattern of A?

    Solves max t over the polytope restricted to the support, with every
    support entry written as s + t, s >= 0; a strictly positive optimum
    certifies the pattern.
    """
    _check_family(A, P)
    A.require_nonnegative("pattern tensor")
    _check_cap(A)
    support = np.nonzero(A.data.ravel() > 0)[0]
    if support.size == 0:
        return False
    # variables: s (one per support cell), then t, whose column is A_sup @ 1
    A_eq, b_eq = _transport_system(P, support, support.size + 1)
    A_eq[:, -1] = A_eq[:, :-1].sum(axis=1)
    c = np.zeros(support.size + 1)
    c[-1] = -1.0  # maximize t
    try:
        res = simplex_minimize(c, A_eq, b_eq)
    except InfeasibleError:
        return False
    return bool(res.x[-1] > 1e-10)
