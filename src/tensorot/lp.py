"""Exact desk-scale ground truth via a two-phase revised simplex.

The transport LP is solved on the flattened tensor with one equality row
per (mode, first n-1 indices) pair plus a single total-mass row — the
minimal independent system.  The simplex only reads the constraint
matrix A: it keeps the m x m basis inverse B^-1, the basic values x_B and
the basis indices, prices the real columns as c - (c_B B^-1) A and
updates B^-1 by one rank-one step per pivot.  Artificial r starts as
sign(b_r) e_r, so no row is negated, and the duals c_B B^-1 belong to
the system as given.  An artificial that phase 1 cannot drive out marks
a redundant row and stays basic at zero.  Pricing has one rule:
Dantzig's, switching to Bland's after 2*(rows+cols) pivots to rule out
cycling.

A second front end decides whether a zero pattern admits a feasible plan
with that exact support by maximizing the minimum support entry t.
Writing the support entries as u = s + t with s, t >= 0 turns this into
max t subject to [A_sup | A_sup @ 1] (s, t) = b on the transport rows
alone: no slack or coupling rows, one extra column.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation
from .tensor import MarginalFamily, Tensor, _fsum

__all__ = [
    "SimplexResult",
    "ExactSolution",
    "simplex_minimize",
    "transport_constraints",
    "solve_exact_tot",
    "scalability_check",
    "size_cap",
]

DEFAULT_CAP = 100_000
CAP_ENV_VAR = "TENSOROT_LP_CAP"

_PIVOT_TOL = 1e-11
_FEAS_TOL = 1e-9


def size_cap(cap: Optional[int] = None) -> int:
    """Effective variable-count cap (argument, else environment, else default)."""
    if cap is not None:
        return cap
    return int(os.environ.get(CAP_ENV_VAR, DEFAULT_CAP))


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
    Binv -= np.outer(column, pivot_row)
    Binv[row] = pivot_row
    x_B -= step * column
    x_B[row] = step
    basis[row] = col


def _row_times(y, A):
    """y @ A on one thread.  OpenBLAS splits a product this wide over
    threads, and a pivot's time then swings with the load on the other core."""
    return np.einsum("i,ij->j", y, A)


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


def _run_phase(A, cost, Binv, x_B, basis) -> int:
    m, ncols = A.shape
    size = m + ncols  # one artificial column per row
    bland_after, max_iter = 2 * size, 2000 + 50 * size
    iterations = 0
    while True:
        # only real columns are priced: artificials never enter
        reduced = cost[:ncols] - _row_times(cost[basis] @ Binv, A)
        col = _choose_entering(reduced, iterations >= bland_after)
        if col is None:
            return iterations
        column = Binv @ A[:, col]
        row = _choose_leaving(x_B, basis, column)
        if row is None:
            raise SimplexError("unbounded direction encountered")
        _pivot(Binv, x_B, basis, row, col, column)
        iterations += 1
        if iterations > max_iter:
            raise SimplexError(f"simplex did not finish within {max_iter} pivots")


def simplex_minimize(c, A_eq, b_eq) -> SimplexResult:
    """Minimize c @ x subject to A_eq @ x = b_eq, x >= 0.

    A_eq is only read.  ``duals`` solves the dual of the system as given;
    it is None when A_eq has a redundant row.
    """
    A = np.asarray(A_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    c = np.asarray(c, dtype=float)
    m, ncols = A.shape
    # artificial r is sign(b_r) e_r, so the starting point x_B = |b| is feasible
    Binv = np.diag(np.where(b < 0, -1.0, 1.0))
    x_B = np.abs(b)
    basis = np.arange(ncols, ncols + m)

    # phase 1: minimize the artificial mass
    cost = np.concatenate([np.zeros(ncols), np.ones(m)])
    iters = _run_phase(A, cost, Binv, x_B, basis)
    phase1 = float(cost[basis] @ x_B)
    if phase1 > _FEAS_TOL * max(1.0, float(np.abs(b).sum())):
        raise InfeasibleError(f"infeasible system (phase-1 mass {phase1:.3e})")

    # drive zero-level artificials out of the basis; one that stays marks a
    # redundant row, whose row of B^-1 A is zero, so no ratio test picks it
    for r in np.nonzero(basis >= ncols)[0]:
        candidates = np.nonzero(np.abs(_row_times(Binv[r], A)) > _PIVOT_TOL)[0]
        if candidates.size:
            col = int(candidates[0])
            _pivot(Binv, x_B, basis, r, col, Binv @ A[:, col])

    # phase 2: original costs
    cost = np.concatenate([c, np.zeros(m)])
    iters += _run_phase(A, cost, Binv, x_B, basis)

    x = np.zeros(ncols)
    real = basis < ncols
    x[basis[real]] = x_B[real]
    duals = cost[basis] @ Binv if real.all() else None
    return SimplexResult(x=x, value=float(c @ x), duals=duals, iterations=iters)


@dataclass
class ExactSolution:
    plan: Tensor
    value: float
    duals: Optional[np.ndarray]
    iterations: int


def transport_constraints(P: MarginalFamily):
    """Equality system of the transport polytope on the flattened tensor.

    Keeps the first n-1 marginal rows of every mode plus one total-mass
    row: d*(n-1)+1 independent equalities over n**d variables.
    """
    d, n = P.d, P.n
    A_eq = np.zeros((d * (n - 1) + 1, n**d))
    first = np.arange(n - 1)
    for j in range(d):
        # rows of mode j as a view over the tensor shape: row i marks index i on axis j
        rows = A_eq[j * (n - 1):(j + 1) * (n - 1)].reshape((n - 1,) + (n,) * d)
        rows[(first,) + (slice(None),) * j + (first,)] = 1.0
    A_eq[-1] = 1.0
    return A_eq, np.append(P.p[:, :-1].ravel(), P.h)


def solve_exact_tot(C: Tensor, P: MarginalFamily, cap: Optional[int] = None) -> ExactSolution:
    """Vertex-optimal plan and exact objective of the transport LP."""
    if (P.d, P.n) != (C.d, C.n):
        raise ValueError("marginal family shape does not match the cost tensor")
    limit = size_cap(cap)
    if C.size > limit:
        raise ContractViolation(
            f"problem has {C.size} variables, above the solver cap {limit}"
        )
    A_eq, b_eq = transport_constraints(P)
    try:
        res = simplex_minimize(C.data.ravel(), A_eq, b_eq)
    except InfeasibleError as exc:  # cannot happen for positive marginals
        raise RuntimeError(f"transport polytope reported infeasible: {exc}") from exc
    plan = Tensor(res.x.reshape(C.data.shape))
    value = _fsum(C.data.ravel() * res.x)
    return ExactSolution(plan=plan, value=value, duals=res.duals, iterations=res.iterations)


def scalability_check(A: Tensor, P: MarginalFamily, cap: Optional[int] = None) -> bool:
    """Can some feasible plan carry exactly the zero pattern of A?

    Solves max t over the polytope restricted to the support, with every
    support entry written as s + t, s >= 0; a strictly positive optimum
    certifies the pattern.
    """
    if (P.d, P.n) != (A.d, A.n):
        raise ValueError("marginal family shape does not match the tensor")
    A.require_nonnegative("pattern tensor")
    limit = size_cap(cap)
    if A.size > limit:
        raise ContractViolation(
            f"problem has {A.size} variables, above the solver cap {limit}"
        )
    support = np.nonzero(A.data.ravel() > 0)[0]
    if support.size == 0:
        return False
    A_marg, b_marg = transport_constraints(P)
    A_sup = A_marg[:, support]
    # variables: s (one per support cell), then t
    A_eq = np.column_stack([A_sup, A_sup.sum(axis=1)])
    c = np.zeros(support.size + 1)
    c[-1] = -1.0  # maximize t
    try:
        res = simplex_minimize(c, A_eq, b_marg)
    except InfeasibleError:
        return False
    return bool(res.x[-1] > 1e-10)
