"""Distances between ordered and unordered sets of discrete measures.

An even-order cost tensor is read as a square matrix over index tuples;
when that matricization is a distance matrix, the transport value between
the stacked marginal lists is itself a distance on ordered tuples of
measures.  When the cost is at least weakly bisymmetric, permuting both
lists by the same order only relabels tensor axes, so every such order
gives the same transport LP and one solve in list order does not depend
on the common order.  The gluing construction composes two feasible
plans that share their middle marginals, which is what the triangle
inequality tests exercise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation
from .lp import solve_exact_tot
from .tensor import MarginalFamily, Tensor
from .transport import approx_tot

__all__ = [
    "DistanceCheck",
    "CostTensorProfile",
    "SetDistanceResult",
    "matricize",
    "check_distance_matrix",
    "check_multiset_distance",
    "check_bisymmetric",
    "cost_profile",
    "lift_ground_metric",
    "pair_distance",
    "glue",
    "contract_middle",
    "set_distance",
]

_ATOL = 1e-12
# l1 gap allowed between the middle marginals of two plans being glued
_GLUE_TOL = 1e-8


@dataclass(frozen=True)
class DistanceCheck:
    ok: bool
    violation: Optional[str]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class CostTensorProfile:
    """Verified structural flags of a cost tensor (set by the validators only).

    ``distance_matrix`` is the strict axiom check on the matricization;
    ``multiset_distance`` is the weaker multiset-style variant where zeros
    are required exactly on equal index multisets (what matching-style
    costs provide, giving a semimetric on measure lists).
    """

    distance_matrix: bool
    multiset_distance: bool
    bisymmetric: bool
    weak_bisymmetric: bool
    violation: Optional[str] = None


@dataclass(frozen=True)
class SetDistanceResult:
    distance: float
    best_permutation: tuple[int, ...]
    profile: CostTensorProfile
    multisets_equal: bool


def _half(C: Tensor) -> int:
    if C.d % 2 != 0:
        raise ValueError(f"need an even tensor order, got {C.d}")
    return C.d // 2


def matricize(C: Tensor) -> np.ndarray:
    """Square matrix over [n]^(d/2) index tuples, row-major on both sides."""
    half = _half(C)
    side = C.n**half
    return C.data.reshape(side, side)


def _triangle_slack(D: np.ndarray) -> np.ndarray:
    """min_k (D[i,k] + D[j,k]) - D[i,j] for every pair (i, j).

    One pivot k at a time, so memory stays O(size^2), not O(size^3).
    """
    best = np.full(D.shape, np.inf)
    for col in D.T:
        np.minimum(best, col[:, None] + col[None, :], out=best)
    return best - D


def check_distance_matrix(D) -> DistanceCheck:
    """Finite entries, zero diagonal, symmetry, positive off-diagonal, all
    triangle inequalities."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1] or D.size == 0:
        raise ValueError(f"expected a square matrix of size >= 1, got shape {D.shape}")
    bad = ~np.isfinite(D)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), D.shape)
        return DistanceCheck(False, f"non-finite entry at ({i}, {j})")
    size = D.shape[0]
    diag = np.abs(np.diag(D))
    if diag.max(initial=0.0) > _ATOL:
        i = int(np.argmax(diag))
        return DistanceCheck(False, f"nonzero self-distance at index {i}: {float(D[i, i])!r}")
    asym = np.abs(D - D.T)
    if asym.max(initial=0.0) > _ATOL:
        i, j = np.unravel_index(np.argmax(asym), D.shape)
        return DistanceCheck(
            False, f"asymmetry at ({i}, {j}): {float(D[i, j])!r} vs {float(D[j, i])!r}")
    off = ~np.eye(size, dtype=bool)
    if size > 1 and D[off].min() <= _ATOL:
        flat = np.where(off, D, np.inf)
        i, j = np.unravel_index(np.argmin(flat), D.shape)
        return DistanceCheck(False, f"nonpositive off-diagonal at ({i}, {j}): {float(D[i, j])!r}")
    # d(i,j) <= d(i,k) + d(k,j) for every triple
    slack = _triangle_slack(D)
    if slack.min() < -_ATOL:
        i, j = np.unravel_index(np.argmin(slack), D.shape)
        k = int(np.argmin(D[i] + D[j]))
        return DistanceCheck(
            False,
            f"triangle violation: d({i},{j}) > d({i},{k}) + d({k},{j})",
        )
    return DistanceCheck(True, None)


def _same_multiset(n: int, half: int) -> np.ndarray:
    """(size, size) mask of the index-tuple pairs that are equal as multisets.

    Each tuple's key is the flat index of its sorted digits.
    """
    shape = (n,) * half
    digits = np.sort(np.stack(np.unravel_index(np.arange(n**half), shape)), axis=0)
    keys = np.ravel_multi_index(tuple(digits), shape)
    return keys[:, None] == keys[None, :]


def check_multiset_distance(C: Tensor) -> DistanceCheck:
    """Multiset-style distance axioms: zero exactly on equal index
    multisets, positive otherwise, symmetric, all triangle inequalities.

    This is what matching-style costs satisfy; their matricizations fail
    the strict check because distinct tuples with equal multisets sit off
    the diagonal at zero.
    """
    half = _half(C)
    D = matricize(C)
    size = D.shape[0]
    same = _same_multiset(C.n, half)
    if np.abs(D[same]).max(initial=0.0) > _ATOL:
        flat = np.where(same, np.abs(D), -np.inf)
        i, j = np.unravel_index(np.argmax(flat), D.shape)
        return DistanceCheck(False, f"nonzero cost on equal multisets at ({i}, {j})")
    if size > 1 and np.any(D[~same] <= _ATOL):
        flat = np.where(~same, D, np.inf)
        i, j = np.unravel_index(np.argmin(flat), D.shape)
        return DistanceCheck(False, f"nonpositive cost on distinct multisets at ({i}, {j})")
    asym = np.abs(D - D.T)
    if asym.max(initial=0.0) > _ATOL:
        i, j = np.unravel_index(np.argmax(asym), D.shape)
        return DistanceCheck(False, f"asymmetry at ({i}, {j})")
    slack = _triangle_slack(D)
    if slack.min() < -_ATOL:
        i, j = np.unravel_index(np.argmin(slack), D.shape)
        return DistanceCheck(False, f"triangle violation between tuples {i} and {j}")
    return DistanceCheck(True, None)


def check_bisymmetric(C: Tensor) -> tuple[bool, bool]:
    """(fully bisymmetric, weakly bisymmetric) flags of an even-order tensor.

    Fully: invariant under independent permutations inside each index half
    and under swapping the halves.  Weakly: the two halves must share the
    permutation.
    """
    half = _half(C)
    data = C.data
    front = list(range(half))
    back = list(range(half, 2 * half))
    swapped = np.transpose(data, back + front)
    if not np.allclose(data, swapped, rtol=0.0, atol=_ATOL):
        return False, False
    weak = True
    full = True
    for perm in itertools.permutations(range(half)):
        if perm == tuple(range(half)):
            continue
        perm_front = [perm[i] for i in range(half)] + back
        perm_back = front + [half + perm[i] for i in range(half)]
        front_ok = np.allclose(data, np.transpose(data, perm_front), rtol=0.0, atol=_ATOL)
        back_ok = np.allclose(data, np.transpose(data, perm_back), rtol=0.0, atol=_ATOL)
        if not (front_ok and back_ok):
            full = False
        both = [perm[i] for i in range(half)] + [half + perm[i] for i in range(half)]
        if not np.allclose(data, np.transpose(data, both), rtol=0.0, atol=_ATOL):
            weak = False
            break
    weak = weak or full
    return full, weak


def cost_profile(C: Tensor) -> CostTensorProfile:
    """Run every validator once and collect the verified flags."""
    full, weak = check_bisymmetric(C)
    check = check_distance_matrix(matricize(C))
    multiset = check_multiset_distance(C)
    return CostTensorProfile(distance_matrix=check.ok, multiset_distance=multiset.ok,
                             bisymmetric=full, weak_bisymmetric=weak,
                             violation=check.violation)


def lift_ground_metric(delta, order: int, mode: str = "sum") -> Tensor:
    """Cost tensor over [n]^order built from an n-point ground metric.

    ``sum`` pairs the k-th front index with the k-th back index and adds
    the ground distances (the l1 product metric on tuples, weakly
    bisymmetric).  ``matching`` takes the cheapest pairing over all
    permutations, vanishing exactly on equal index multisets (fully
    bisymmetric).
    """
    delta = np.asarray(delta, dtype=float)
    check = check_distance_matrix(delta)
    if not check.ok:
        raise ValueError(f"ground metric is invalid: {check.violation}")
    if order % 2 != 0 or order < 2:
        raise ValueError("order must be a positive even number")
    if mode not in ("sum", "matching"):
        raise ValueError("mode must be 'sum' or 'matching'")
    half = order // 2
    n = delta.shape[0]
    idx = np.indices((n,) * order)

    def pairing_cost(perm):
        total = np.zeros((n,) * order)
        for k in range(half):
            total = total + delta[idx[k], idx[half + perm[k]]]
        return total

    if mode == "sum":
        return Tensor._adopt(pairing_cost(tuple(range(half))))
    best = None
    for perm in itertools.permutations(range(half)):
        cost = pairing_cost(perm)
        best = cost if best is None else np.minimum(best, cost)
    return Tensor._adopt(best)


def _as_measure_list(vectors, n: int, half: int, what: str) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape != (half, n):
        raise ValueError(f"{what} must hold {half} vectors of length {n}")
    return arr


def pair_distance(
    C: Tensor,
    left,
    right,
    solver: str = "exact",
    delta: Optional[float] = None,
) -> float:
    """Transport value between two ordered lists of d/2 measures."""
    half = _half(C)
    left = _as_measure_list(left, C.n, half, "left measures")
    right = _as_measure_list(right, C.n, half, "right measures")
    family = MarginalFamily(np.vstack([left, right]))
    family.require_probability()
    if solver == "exact":
        return solve_exact_tot(C, family).value
    if solver == "entropic":
        if delta is None:
            raise ValueError("the entropic solver needs a delta target")
        _, cert = approx_tot(C, family, delta)
        return cert.value
    raise ValueError("solver must be 'exact' or 'entropic'")


def glue(U: Tensor, V: Tensor) -> Tensor:
    """Compose two plans sharing their middle marginals into one joint plan.

    U couples blocks (front, middle) and V couples (middle, back); the
    result couples (front, middle, back) with 0/0 read as 0.  Contracting
    away the back block recovers U, the front block recovers V, and the
    middle block yields a feasible coupling of (front, back).
    """
    half = _half(U)
    if V.d != U.d or V.n != U.n:
        raise ValueError("both plans must share order and side length")
    n = U.n
    side = n**half
    u_mat = U.data.reshape(side, side)
    v_mat = V.data.reshape(side, side)
    mid_u = u_mat.sum(axis=0)
    mid_v = v_mat.sum(axis=1)
    gap = float(np.abs(mid_u - mid_v).sum())
    if gap > _GLUE_TOL:
        raise ValueError(
            f"middle marginals of the two plans disagree (l1 gap {gap:.3e})"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        w = u_mat[:, :, None] * v_mat[None, :, :] / mid_u[None, :, None]
    w = np.where(mid_u[None, :, None] > 0, w, 0.0)
    return Tensor._adopt(w.reshape((n,) * (3 * half)))


def contract_middle(W: Tensor, half: int) -> Tensor:
    """Sum a glued plan over its middle block, coupling front with back."""
    if W.d != 3 * half:
        raise ValueError(f"expected an order-{3 * half} glued plan, got order {W.d}")
    axes = tuple(range(half, 2 * half))
    return Tensor._adopt(W.data.sum(axis=axes))


def _multisets_equal(left: np.ndarray, right: np.ndarray) -> bool:
    for perm in itertools.permutations(range(left.shape[0])):
        if all(np.allclose(left[i], right[perm[i]], rtol=0.0, atol=_ATOL)
               for i in range(left.shape[0])):
            return True
    return False


def set_distance(
    C: Tensor,
    left,
    right,
    solver: str = "exact",
    delta: Optional[float] = None,
) -> SetDistanceResult:
    """Distance between two lists of d/2 measures, free of their common order.

    Requires a (at least weakly) bisymmetric cost, under which every
    simultaneous permutation of both lists solves the same LP, so the
    lists are compared once, in the order given; ``best_permutation`` is
    the identity.  The positivity caveat for multiset-style costs is
    surfaced through ``multisets_equal`` rather than patched into the
    value.
    """
    half = _half(C)
    profile = cost_profile(C)
    if not profile.weak_bisymmetric:
        raise ContractViolation(
            "set distance needs a weakly bisymmetric cost tensor"
        )
    left = _as_measure_list(left, C.n, half, "left measures")
    right = _as_measure_list(right, C.n, half, "right measures")
    return SetDistanceResult(
        distance=pair_distance(C, left, right, solver=solver, delta=delta),
        best_permutation=tuple(range(half)),
        profile=profile,
        multisets_equal=_multisets_equal(left, right),
    )
