"""Round a near-feasible plan into the transport polytope.

Two stages: d shrink passes cap each mode's marginal at its target (never
increasing any entry), then a single rank-one tensor built from the
leftover marginal deficits restores exact feasibility.  The total l1
movement is at most twice the summed l1 marginal gaps of the input.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .tensor import MarginalFamily, Tensor, _axis_shape, _fsum, all_marginals

__all__ = ["shrink_to_submarginals", "rank_one_correction", "round_to_polytope"]


def shrink_to_submarginals(F: Tensor, P: MarginalFamily) -> tuple[Tensor, np.ndarray]:
    """Cap every mode marginal at its target by monotone slice shrinking.

    Returns the shrunk tensor G <= F together with its marginals stacked
    as a (d, n) array; each is entrywise below the matching target and all
    carry one common mass.
    """
    if (P.d, P.n) != (F.d, F.n):
        raise ValueError("marginal family shape does not match the tensor")
    F.require_nonnegative("plan to round")
    if not np.any(F.data > 0):
        raise ContractViolation("cannot round the zero tensor")
    d, n = F.d, F.n
    data = F.data.copy()
    for j in range(d):
        axes = tuple(ax for ax in range(d) if ax != j)
        s = data.sum(axis=axes)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(s > 0, np.minimum(P.p[j] / s, 1.0), 1.0)
        data *= factor.reshape(_axis_shape(d, j, n))
    G = Tensor(data)
    return G, all_marginals(G)


def rank_one_correction(G: Tensor, submarginals, P: MarginalFamily) -> Tensor:
    """Add the rank-one tensor of marginal deficits, restoring feasibility.

    The deficits p_j - q_j must be nonnegative; their outer product scaled
    by the missing mass puts exactly ``h - h'`` of l1 weight back, landing
    the result in the transport polytope.
    """
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
    h_prime = _fsum(G.data)
    missing = h - h_prime
    if missing <= 1e-15 * max(1.0, h):
        return G
    correction = diff[0]
    for row in diff[1:]:
        correction = np.multiply.outer(correction, row)
    correction /= missing ** (P.d - 1)
    correction += G.data
    return Tensor(correction)


def round_to_polytope(F: Tensor, P: MarginalFamily) -> Tensor:
    """Project F into the transport polytope of P.

    The output is feasible to working precision and moves at most
    ``2 * sum_j ||p_j - marginal_j(F)||_1`` of l1 mass.
    """
    G, qs = shrink_to_submarginals(F, P)
    return rank_one_correction(G, qs, P)
