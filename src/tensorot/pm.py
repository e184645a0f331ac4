"""Block partial minimization for smooth strictly convex functions.

One step minimizes the objective exactly over a single block subspace,
the block being chosen by the largest block-gradient s-norm.  The greedy
scaling iteration is the special case where the objective is the scaling
potential

    g(Y) = ||A(Y)||_1 - sum_j <p_j, y_j>,

whose block minimizers are available in closed form.  This module also
provides the potential itself, pointwise Hessian eigenvalue bounds over
the support, the linear-rate certificate used to audit runs, and the
simplex projection/KL estimates the stopping analysis rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractViolation
from .scaling import (_line_residuals, _svd_bases, kl_divergence, log_marginal_fit,
                      mode_orthogonal_blocks)
from .tensor import MarginalFamily, Tensor, _fsum, all_marginals, apply_scaling

__all__ = [
    "PmProblem",
    "PmResult",
    "RateParams",
    "RateReport",
    "pm_minimize",
    "g_value",
    "g_gradient",
    "hessian_bounds",
    "rate_bound",
    "projection_kl_bounds",
    "ProjectionKlBounds",
    "mode_orthogonal_blocks",
    "scaling_block_minimizer",
    "g_sublevel_params",
]

# Random perturbations, and their scale, in the sublevel sweep of g_sublevel_params.
_SUBLEVEL_SAMPLES = 100
_SUBLEVEL_SPREAD = 0.5
# Rounding allowance in each inequality checked by projection_kl_bounds.
_KL_SLACK = 1e-12

# ---------------------------------------------------------------------------
# the scaling potential and its derivatives


def g_value(A: Tensor, P: MarginalFamily, Y) -> float:
    """Potential ||A(Y)||_1 - sum_j <p_j, y_j> for the scaling problem."""
    Y = np.asarray(Y, dtype=float)
    scaled = apply_scaling(A, Y)
    return _fsum(scaled.data) - float(np.sum(P.p * Y))


def g_gradient(A: Tensor, P: MarginalFamily, Y) -> np.ndarray:
    """Gradient blocks marginal_j(A(Y)) - p_j, stacked as (d, n)."""
    Y = np.asarray(Y, dtype=float)
    scaled = apply_scaling(A, Y)
    return all_marginals(scaled) - P.p


def hessian_bounds(A: Tensor, Y) -> tuple[float, float]:
    """Range [alpha, beta] of a*exp(sum_j y[j,i_j]) over the support of A.

    The eigenvalues of the restricted Hessian of the potential lie in this
    interval.
    """
    Y = np.asarray(Y, dtype=float)
    scaled = apply_scaling(A, Y)
    vals = scaled.data[A.data > 0]
    if vals.size == 0:
        raise ContractViolation("tensor has empty support")
    return float(vals.min()), float(vals.max())


# ---------------------------------------------------------------------------
# generic partial minimization


@dataclass
class PmProblem:
    """A smooth strictly convex objective plus block subspaces to sweep.

    ``blocks`` holds one orthonormal basis (columns) per block; their spans
    must together cover the search space.  ``minimizer``, when given, maps
    (x, block index) to the exact displacement into that block's affine
    slice; otherwise a safeguarded Newton fallback is used.
    """

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    blocks: Sequence[np.ndarray]
    x0: np.ndarray
    s: float = 1.0
    tol: float = 1e-9
    max_iter: int = 1000
    minimizer: Optional[Callable[[np.ndarray, int], np.ndarray]] = None

    def __post_init__(self):
        if not 1.0 <= self.s <= 2.0:
            raise ValueError("the selection norm exponent s must lie in [1, 2]")
        if not self.blocks:
            raise ValueError("need at least one block subspace")
        self.x0 = np.asarray(self.x0, dtype=float).ravel()


@dataclass
class PmResult:
    x: np.ndarray
    f_values: list[float]
    blocks_chosen: list[int]
    iterates: list[np.ndarray]
    converged: bool

    @property
    def steps(self) -> int:
        return len(self.blocks_chosen)


def _vector_norm(v: np.ndarray, s: float) -> float:
    if s == 1.0:
        return float(np.abs(v).sum())
    if s == 2.0:
        return float(np.linalg.norm(v))
    return float(np.sum(np.abs(v) ** s) ** (1.0 / s))


def _newton_block_step(prob: PmProblem, x: np.ndarray, j: int) -> np.ndarray:
    """Minimize the objective over x + span(blocks[j]) by damped Newton."""
    Q = prob.blocks[j]
    dim = Q.shape[1]
    z = np.zeros(dim)

    def phi(zz):
        return prob.objective(x + Q @ zz)

    def grad_phi(zz):
        return Q.T @ prob.gradient(x + Q @ zz)

    f_cur = phi(z)
    for _ in range(100):
        g = grad_phi(z)
        gnorm = np.linalg.norm(g)
        if gnorm <= 1e-12 * (1.0 + abs(f_cur)):
            break
        # finite-difference Hessian on the block coordinates
        H = np.empty((dim, dim))
        h = 1e-6 * (1.0 + np.linalg.norm(z))
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            H[:, i] = (grad_phi(z + e) - grad_phi(z - e)) / (2 * h)
        H = 0.5 * (H + H.T)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = -g
        if g @ step > 0:  # not a descent direction; fall back to gradient
            step = -g
        t = 1.0
        while t > 1e-14:
            f_new = phi(z + t * step)
            if f_new <= f_cur + 1e-4 * t * (g @ step):
                z = z + t * step
                f_cur = f_new
                break
            t *= 0.5
        else:
            raise ContractViolation(
                "inner block minimizer failed to make progress; "
                "objective may not be strictly convex on the block"
            )
    return Q @ z


def pm_minimize(prob: PmProblem) -> PmResult:
    """Run the greedy block-minimization sweep until the gradient is small.

    Raises :class:`ContractViolation` when a step fails to decrease the
    objective (the strict-convexity contract is then broken) or when the
    block-gradient compatibility inequality fails at an iterate.
    """
    span = np.hstack([np.asarray(Q, dtype=float) for Q in prob.blocks])
    # orthonormal basis of the combined search space
    q_all = _svd_bases(span)[0]

    x = prob.x0.copy()
    f_cur = prob.objective(x)
    f_values = [f_cur]
    iterates = [x.copy()]
    blocks_chosen: list[int] = []
    converged = False

    for _ in range(prob.max_iter):
        grad = prob.gradient(x)
        grad_w = q_all @ (q_all.T @ grad)
        block_grads = [Q @ (Q.T @ grad) for Q in prob.blocks]
        sq_sum = sum(float(bg @ bg) for bg in block_grads)
        full_sq = float(grad_w @ grad_w)
        if full_sq > sq_sum + 1e-9 * (1.0 + sq_sum):
            raise ContractViolation(
                "block gradients do not dominate the full gradient; "
                "the block subspaces do not satisfy the compatibility inequality"
            )
        if math.sqrt(full_sq) <= prob.tol:
            converged = True
            break
        norms = [_vector_norm(bg, prob.s) for bg in block_grads]
        j = int(np.argmax(norms))
        if prob.minimizer is not None:
            step = np.asarray(prob.minimizer(x, j), dtype=float).ravel()
        else:
            step = _newton_block_step(prob, x, j)
        x = x + step
        f_new = prob.objective(x)
        # genuine increases break the convexity contract; a stall at float
        # resolution near the minimum does not
        if f_new > f_cur + 1e-12 * max(1.0, abs(f_cur)):
            raise ContractViolation(
                f"block step on block {j} increased the objective "
                f"({f_cur!r} -> {f_new!r}); strict convexity contract violated"
            )
        f_cur = f_new
        f_values.append(f_cur)
        iterates.append(x.copy())
        blocks_chosen.append(j)

    return PmResult(x=x, f_values=f_values, blocks_chosen=blocks_chosen,
                    iterates=iterates, converged=converged)


# ---------------------------------------------------------------------------
# linear-rate certificate


@dataclass(frozen=True)
class RateParams:
    """Hessian eigenvalue range and block geometry entering the rate."""

    alpha: float
    beta: float
    ell: int
    s: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha <= self.beta:
            raise ValueError("need 0 < alpha <= beta")

    @property
    def kappa(self) -> float:
        return self.beta / self.alpha


@dataclass
class RateReport:
    bounds: np.ndarray
    gaps: np.ndarray
    violations: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def rate_bound(
    f_values: Sequence[float],
    params: RateParams,
    d: int,
    f_star: float,
    kappas: Optional[Sequence[float]] = None,
) -> RateReport:
    """Check the per-step geometric decrease certificate along a run.

    ``bounds[k]`` is the certified ceiling on f(x_k) - f_star; the first
    step uses a 1/d factor and later steps 1/(d-1), each damped by the
    block dimension term ell^((2-s)/s) and the condition number (taken
    from ``kappas`` per step when provided, else params.kappa throughout).
    """
    f_values = np.asarray(f_values, dtype=float)
    gaps = f_values - f_star
    bounds = np.empty_like(gaps)
    bounds[0] = gaps[0]
    dim_term = params.ell ** ((2.0 - params.s) / params.s)
    running = gaps[0]
    for k in range(1, len(f_values)):
        kap = params.kappa if kappas is None else float(kappas[k - 1])
        denom = (d if k == 1 else d - 1) * dim_term * kap
        running *= 1.0 - 1.0 / denom
        bounds[k] = running
    violations = [
        int(k)
        for k in range(1, len(f_values))
        if gaps[k] > bounds[k] + 1e-12 + 1e-9 * abs(bounds[k])
    ]
    return RateReport(bounds=bounds, gaps=gaps, violations=violations)


# ---------------------------------------------------------------------------
# scaling-problem helpers: closed-form minimizer, sublevel sweep


def scaling_block_minimizer(A: Tensor, P: MarginalFamily):
    """Closed-form block minimizer for the scaling potential.

    The exact minimizer over block j is the marginal-fit update recentred
    so the step stays orthogonal to p_j:  z - <p_j, z> * 1  with
    z = log p_j - log marginal_j(A(Y)).
    """
    d, n = P.d, P.n

    def minimize(x: np.ndarray, j: int) -> np.ndarray:
        Y = np.asarray(x, dtype=float).reshape(d, n)
        z = log_marginal_fit(apply_scaling(A, Y), P.p[j], j)
        step_j = z - float(P.p[j] @ z) * np.ones(n) / P.h
        step = np.zeros(d * n)
        step[j * n:(j + 1) * n] = step_j
        return step

    return minimize


def g_sublevel_params(
    A: Tensor,
    P: MarginalFamily,
    iterates: Sequence[np.ndarray],
    rng: Optional[np.random.Generator] = None,
) -> RateParams:
    """Hessian range over a sampled sweep of the starting sublevel set.

    Samples the run's own iterates, their midpoints, and
    ``_SUBLEVEL_SAMPLES`` random block-orthogonal perturbations of scale
    ``_SUBLEVEL_SPREAD`` kept inside {g <= g(x0)}, and returns the
    aggregated eigenvalue bracket for the l1 selection norm (s = 1).
    """
    rng = rng or np.random.default_rng(0)
    d, n = P.d, P.n
    pts = [np.asarray(x, dtype=float).reshape(d, n) for x in iterates]
    cands = list(pts)
    for a, b in zip(pts[:-1], pts[1:]):
        cands.append(0.5 * (a + b))
    t0 = g_value(A, P, pts[0])
    p_sq = (P.p * P.p).sum(axis=1)
    for _ in range(_SUBLEVEL_SAMPLES):
        base = pts[rng.integers(len(pts))]
        # keep the perturbation inside the per-mode orthogonal blocks
        noise = _line_residuals(rng.normal(scale=_SUBLEVEL_SPREAD, size=(d, n)), P.p, p_sq)
        cand = base + noise
        if g_value(A, P, cand) <= t0 * (1 + 1e-12) + 1e-12:
            cands.append(cand)
    alphas, betas = zip(*(hessian_bounds(A, Y) for Y in cands))
    return RateParams(alpha=min(alphas), beta=max(betas), ell=n - 1)


# ---------------------------------------------------------------------------
# simplex projection / KL estimates


@dataclass(frozen=True)
class ProjectionKlBounds:
    """Quantities tying the projected marginal residual to the KL divergence."""

    scale: float
    residual_l1: float
    l1_gap: float
    kl: float
    scale_gap_ok: bool
    halving_ok: bool
    pinsker_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.scale_gap_ok and self.halving_ok and self.pinsker_ok


def projection_kl_bounds(p, q) -> ProjectionKlBounds:
    """Evaluate the projection-residual estimates for simplex vectors p, q.

    p must be strictly positive; q may touch the boundary (the KL bound is
    then trivially satisfied at +inf).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be vectors of one common length")
    if np.any(p <= 0):
        raise ContractViolation("p must be strictly positive")
    n = p.size
    scale = float(q @ p) / float(p @ p)
    residual = float(np.abs(q - scale * p).sum())
    l1_gap = float(np.abs(q - p).sum())
    kl = kl_divergence(p, q)
    return ProjectionKlBounds(
        scale=scale,
        residual_l1=residual,
        l1_gap=l1_gap,
        kl=kl,
        scale_gap_ok=abs(1.0 - scale) <= residual + _KL_SLACK,
        halving_ok=2.0 * residual + _KL_SLACK >= l1_gap,
        pinsker_ok=residual <= (math.sqrt(n) + 1.0) * math.sqrt(2.0 * kl) + _KL_SLACK,
    )
