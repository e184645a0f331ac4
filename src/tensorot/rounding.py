"""Round a near-feasible plan into the transport polytope.

Two stages: d shrink passes cap each mode's marginal at its target (never
increasing any entry), then a single rank-one tensor built from the
leftover marginal deficits restores exact feasibility.  The total l1
movement is at most twice the summed l1 marginal gaps of the input.

Both stages work in place on one private copy of the plan; the rank-one
tensor is added a block of leading-axis slabs at a time, so rounding
forms no second array of the plan's size.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ContractViolation
from .tensor import (MarginalFamily, Tensor, _axis_shape, _check_family, _fsum, _marginals,
                     _mass, _row_blocks)

__all__ = ["shrink_to_submarginals", "rank_one_correction", "round_to_polytope"]


def _shrunk(F: Tensor, P: MarginalFamily) -> tuple[np.ndarray, np.ndarray]:
    """A private copy of F with every mode marginal capped at its target,
    and those marginals."""
    _check_family(F, P)
    F.require_nonnegative("plan to round")
    if not np.any(F.data > 0):
        raise ContractViolation("cannot round the zero tensor")
    d, n = F.d, F.n
    data = F.data.copy()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j in range(d):
            s = np.add.reduce(data, axis=tuple(ax for ax in range(d) if ax != j))
            if j == 0:  # later sums are capped by the targets
                _mass(s, "plan to round")
            factor = np.where(s > 0, np.minimum(P.p[j] / s, 1.0), 1.0)
            data *= factor.reshape(_axis_shape(d, j, n))
    return data, _marginals(data)


def shrink_to_submarginals(F: Tensor, P: MarginalFamily) -> tuple[Tensor, np.ndarray]:
    """Cap every mode marginal at its target by monotone slice shrinking.

    Returns the shrunk tensor G <= F together with its marginals stacked
    as a (d, n) array; each is entrywise below the matching target and all
    carry one common mass.
    """
    data, qs = _shrunk(F, P)
    return Tensor._adopt(data), qs


def _deficits(data: np.ndarray, submarginals, P: MarginalFamily
              ) -> Optional[tuple[np.ndarray, float]]:
    """The marginal deficits p_j - q_j of ``data`` and the divisor
    ``(h - h')**(d-1)`` of their outer product, or None when no mass is
    missing."""
    qs = np.asarray(submarginals, dtype=float)
    if qs.shape != (P.d, P.n):
        raise ValueError(f"expected sub-marginals of shape {(P.d, P.n)}")
    h = P.h
    diff = P.p - qs
    if diff.min() < -1e-9 * max(1.0, h):
        raise ContractViolation(
            "sub-marginals exceed the targets; shrink the plan first"
        )
    diff = np.maximum(diff, 0.0)
    missing = h - _fsum(data)
    if missing <= 1e-15 * max(1.0, h):
        return None
    return diff, missing ** (P.d - 1)


def _add_outer(data: np.ndarray, vectors: np.ndarray, divisor: float) -> None:
    """Add the outer product of the rows of ``vectors``, divided by
    ``divisor``, to ``data`` in place, one block of leading-axis slabs at a
    time; each block multiplies its factors in the order of a whole outer
    product, so the entries come out the same."""
    for rows in _row_blocks(data.shape[0], data.size // data.shape[0]):
        block = vectors[0][rows]
        for row in vectors[1:]:
            block = np.multiply.outer(block, row)
        block /= divisor
        data[rows] += block


def rank_one_correction(G: Tensor, submarginals, P: MarginalFamily) -> Tensor:
    """Add the rank-one tensor of marginal deficits, restoring feasibility.

    The deficits p_j - q_j must be nonnegative; their outer product scaled
    by the missing mass puts exactly ``h - h'`` of l1 weight back, landing
    the result in the transport polytope.
    """
    deficits = _deficits(G.data, submarginals, P)
    if deficits is None:
        return G
    data = G.data.copy()
    _add_outer(data, *deficits)
    return Tensor._adopt(data)


def round_to_polytope(F: Tensor, P: MarginalFamily) -> Tensor:
    """Project F into the transport polytope of P.

    The output is feasible to working precision and moves at most
    ``2 * sum_j ||p_j - marginal_j(F)||_1`` of l1 mass.
    """
    data, qs = _shrunk(F, P)
    deficits = _deficits(data, qs, P)
    if deficits is not None:
        _add_outer(data, *deficits)
    return Tensor._adopt(data)
