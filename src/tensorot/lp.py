"""Exact desk-scale ground truth via a dense two-phase tableau simplex.

The transport LP is solved on the flattened tensor with one equality row
per (mode, first n-1 indices) pair plus a single total-mass row — the
minimal independent system.  Pricing has one rule: Dantzig's, switching
to Bland's after 2*(rows+cols) pivots to rule out cycling.  The duals are
read off the final tableau, whose artificial columns hold the basis
inverse.

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


def _pivot(T: np.ndarray, zrow: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    zrow -= zrow[col] * T[row]
    basis[row] = col


def _choose_entering(reduced, use_bland) -> Optional[int]:
    if use_bland:
        idx = np.nonzero(reduced < -_PIVOT_TOL)[0]
        return int(idx[0]) if idx.size else None
    col = int(np.argmin(reduced))
    return col if reduced[col] < -_PIVOT_TOL else None


def _choose_leaving(T, basis, col) -> Optional[int]:
    column = T[:, col]
    rhs = T[:, -1]
    rows = np.nonzero(column > _PIVOT_TOL)[0]
    if rows.size == 0:
        return None
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    ties = rows[ratios <= best + 1e-12]
    # smallest basis index among ties guards against cycling
    return int(ties[np.argmin([basis[r] for r in ties])])


def _run_phase(T, zrow, basis, ncols) -> int:
    size = zrow.size - 1  # rows + cols: one artificial column per row
    bland_after, max_iter = 2 * size, 2000 + 50 * size
    iterations = 0
    while True:
        # only real columns are priced: artificials never enter
        col = _choose_entering(zrow[:ncols], iterations >= bland_after)
        if col is None:
            return iterations
        row = _choose_leaving(T, basis, col)
        if row is None:
            raise SimplexError("unbounded direction encountered")
        _pivot(T, zrow, basis, row, col)
        iterations += 1
        if iterations > max_iter:
            raise SimplexError(f"simplex did not finish within {max_iter} pivots")


def simplex_minimize(c, A_eq, b_eq) -> SimplexResult:
    """Minimize c @ x subject to A_eq @ x = b_eq, x >= 0.

    ``duals`` solves the dual of the system as given; it is None when a
    redundant row of A_eq was dropped.
    """
    A = np.array(A_eq, dtype=float)
    b = np.array(b_eq, dtype=float)
    c = np.asarray(c, dtype=float)
    m, ncols = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(ncols, ncols + m))

    # phase 1: minimize the artificial mass
    c1 = np.concatenate([np.zeros(ncols), np.ones(m)])
    zrow = np.concatenate([c1, [0.0]]) - c1[basis] @ T
    iters = _run_phase(T, zrow, basis, ncols)
    phase1 = -zrow[-1]
    if phase1 > _FEAS_TOL * max(1.0, float(np.abs(b).sum())):
        raise InfeasibleError(f"infeasible system (phase-1 mass {phase1:.3e})")

    # drive zero-level artificials out of the basis; drop redundant rows
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= ncols:
            candidates = np.nonzero(np.abs(T[r, :ncols]) > _PIVOT_TOL)[0]
            if candidates.size:
                _pivot(T, zrow, basis, r, int(candidates[0]))
            else:
                keep[r] = False
    if not keep.all():
        T = T[keep]
        basis = [basis[r] for r in range(m) if keep[r]]

    # phase 2: original costs
    c2 = np.concatenate([c, np.zeros(m)])
    zrow = np.concatenate([c2, [0.0]]) - c2[basis] @ T
    iters += _run_phase(T, zrow, basis, ncols)

    x = np.zeros(ncols)
    for r, var in enumerate(basis):
        if var < ncols:
            x[var] = T[r, -1]
    value = float(c @ x)
    duals = None
    if keep.all():
        # the artificial columns hold B^-1, so their reduced costs are -c_B B^-1
        duals = -zrow[ncols:ncols + m]
        duals[flip] *= -1.0
    return SimplexResult(x=x, value=value, duals=duals, iterations=iters)


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
    size = n**d
    idx = np.indices((n,) * d).reshape(d, size)
    rows = []
    rhs = []
    for j in range(d):
        for i in range(n - 1):
            rows.append((idx[j] == i).astype(float))
            rhs.append(P.p[j, i])
    rows.append(np.ones(size))
    rhs.append(P.h)
    return np.array(rows), np.array(rhs)


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
