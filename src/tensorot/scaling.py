"""Greedy Sinkhorn scaling of nonnegative tensors to prescribed marginals.

Each step rescales the single mode whose marginal deviates most, measured
by the l1 norm of the marginal after the component along the target has
been projected out.  For strictly positive tensors that projected
residual is used directly; for tensors with zeros the residual is first
pushed through the support-aware subspace decomposition, which ignores
directions along which the scaling cannot move.

A step adds its log-domain update to the accumulated exponents and
multiplies the chosen mode's slices of a private working iterate in place
by its exponential, as Greenkhorn does (Altschuler, Weed & Rigollet,
NeurIPS 2017).  The working iterate is rebuilt from the normalized input
and the exponents only when it passes the stopping test, and then the test
is taken again on the rebuilt iterate, so the returned exponents reproduce
the returned iterate exactly.  Long runs also rebuild every
``_REBUILD_STEPS`` steps, which keeps the rounding drift of the working
iterate bounded.

Each step leaves one :class:`IterationRecord`, which is exactly one line
of the JSONL trace; its ``kl`` is K(p_j || s_j) of the applied step, taken
from the same log-ratio vector the step adds to the exponents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractViolation, DegenerateSliceError, NonConvergenceError
from .tensor import MarginalFamily, Tensor, _axis_shape, _fsum, _marginals, _scaled, marginal

__all__ = [
    "SinkhornConfig",
    "SinkhornTrace",
    "IterationRecord",
    "SubspaceBases",
    "sinkhorn_scale",
    "log_marginal_fit",
    "residual",
    "select_mode",
    "kl_divergence",
    "support_subspaces",
    "mode_orthogonal_blocks",
    "iteration_bound",
]

_RCOND = 1e-10
VARIANTS = ("positive", "support")
# The working iterate is also rebuilt after this many steps without a
# rebuild: its drift grows about linearly with the steps (about 2e-17 in
# l1 per step on d=3, n=6 kernels), and a long run must stay a probability
# tensor to 1e-12.
_REBUILD_STEPS = 1024


@dataclass(frozen=True)
class SinkhornConfig:
    """Stopping threshold, safety cap, and variant switch for one run."""

    epsilon: float
    max_iter: Optional[int] = None
    variant: str = "positive"

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ContractViolation("epsilon must lie in (0, 1/2)")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


@dataclass(frozen=True)
class IterationRecord:
    """State of one scaling step, taken before the update; one JSONL trace line."""

    k: int
    mode: Optional[int]  # None on the final (stopping) record
    residual_l1: float  # max over modes; the selection/stopping quantity
    kl: Optional[float]  # K(p_mode || marginal) of the applied step
    g_value: float


@dataclass
class SinkhornTrace:
    """Per-iteration records plus the run's certificate quantities."""

    epsilon: float
    variant: str
    records: list[IterationRecord] = field(default_factory=list)
    k_stop: Optional[int] = None
    bound: Optional[float] = None
    eta: Optional[float] = None
    mass: Optional[float] = None
    rematerializations: int = 0  # rebuilds of the iterate from the exponents
    drift: float = 0.0  # largest l1 gap, at a rebuild, of working vs rebuilt marginals

    @property
    def g_values(self) -> np.ndarray:
        return np.array([r.g_value for r in self.records])

    @property
    def kl_values(self) -> np.ndarray:
        return np.array([math.nan if r.kl is None else r.kl for r in self.records])

    @property
    def residuals(self) -> np.ndarray:
        return np.array([r.residual_l1 for r in self.records])

    @property
    def modes(self) -> list[Optional[int]]:
        return [r.mode for r in self.records]

    def write_jsonl(self, path) -> None:
        """One JSON line per iteration, then a closing certificate line."""
        with open(path, "w", encoding="utf-8") as fh:
            for r in self.records:
                fh.write(json.dumps(vars(r)))
                fh.write("\n")
            fh.write(json.dumps({
                "k_stop": self.k_stop,
                "bound": self.bound,
                "eta": self.eta,
                "mass": self.mass,
            }))
            fh.write("\n")


@dataclass(frozen=True)
class SubspaceBases:
    """Orthonormal bases of the subspaces steering the support variant.

    All live in the stacked (d*n)-dimensional space of per-mode exponent
    vectors: ``marginal_orth`` collects every direction orthogonal to its
    mode's target marginal; ``degenerate`` the directions that leave the
    scaling unchanged on the support; ``complement`` the orthogonal
    complement of the latter inside the former; ``mode_blocks[j]`` the
    projection of mode j's orthogonal directions into the complement.
    """

    marginal_orth: np.ndarray
    degenerate: np.ndarray
    complement: np.ndarray
    mode_blocks: list[np.ndarray]

    @property
    def dim_degenerate(self) -> int:
        return self.degenerate.shape[1]

    @property
    def dim_complement(self) -> int:
        return self.complement.shape[1]


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence sum p_i (log p_i - log q_i).

    Returns +inf when q vanishes somewhere p does not.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("p and q must have one common length")
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    pm = p[mask]
    return _fsum(pm * (np.log(pm) - np.log(q[mask])))


def log_marginal_fit(A: Tensor, p, mode: int) -> np.ndarray:
    """Log-domain update log(p) - log(marginal) that fits mode ``mode`` to p."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ContractViolation("target marginal must be strictly positive")
    s = marginal(A, mode)
    if np.any(s <= 0):
        raise DegenerateSliceError(f"mode {mode} has a slice with zero mass")
    return np.log(p) - np.log(s)


def _line_residuals(S: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Each row of S minus its orthogonal projection onto the same row of p."""
    coef = (S * p).sum(axis=1) / (p * p).sum(axis=1)
    return S - coef[:, None] * p


def residual(A: Tensor, p, mode: int) -> tuple[np.ndarray, float]:
    """Marginal minus its projection onto the target direction, plus its l1 norm."""
    p = np.asarray(p, dtype=float)
    if not np.any(p):
        raise ValueError("target marginal must be nonzero")
    r = _line_residuals(marginal(A, mode)[None, :], p[None, :])[0]
    return r, float(np.abs(r).sum())


def select_mode(A: Tensor, P: MarginalFamily, bases: Optional[SubspaceBases] = None) -> int:
    """Mode with the largest residual norm; ties break to the smallest index."""
    return int(np.argmax(_residual_norms(_marginals(A.data), P, bases)))


def _residual_norms(S: np.ndarray, P: MarginalFamily, bases: Optional[SubspaceBases]):
    """l1 residual norm per mode.

    With ``bases`` the marginals are embedded into their mode block and
    projected onto the support-aware blocks; without, the plain projected
    line residual is used.
    """
    d, n = P.d, P.n
    if bases is None:
        return np.abs(_line_residuals(S, P.p)).sum(axis=1)
    l1 = np.empty(d)
    for j in range(d):
        Q = bases.mode_blocks[j]
        coords = Q[j * n:(j + 1) * n, :].T @ S[j]
        l1[j] = np.abs(Q @ coords).sum()
    return l1


def _svd_bases(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal column bases of the range and the null space of M, with
    rank cut at ``_RCOND`` times the largest singular value.  The SVD is thin
    on tall M, so no (rows x rows) factor is formed."""
    u, s, vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    rank = int(np.count_nonzero(s > _RCOND * s.max(initial=0.0)))
    return u[:, :rank], vh[rank:].T


def mode_orthogonal_blocks(P: MarginalFamily) -> list[np.ndarray]:
    """Orthonormal bases of the per-mode blocks {y orthogonal to p_j},
    embedded into the (d*n)-dimensional stacked space."""
    d, n = P.d, P.n
    blocks = []
    for j in range(d):
        base = _svd_bases(P.p[j][None, :])[1]  # (n, n-1)
        emb = np.zeros((d * n, base.shape[1]))
        emb[j * n:(j + 1) * n, :] = base
        blocks.append(emb)
    return blocks


def support_subspaces(A: Tensor, P: MarginalFamily) -> SubspaceBases:
    """Decompose the exponent space according to the support pattern of A.

    The degenerate part collects exponent combinations that cancel on
    every positive entry (so the scaling cannot see them); its complement
    inside the marginal-orthogonal space is where the iteration actually
    moves.  For strictly positive A the degenerate part is trivial.
    """
    d, n = A.d, A.n
    if P.d != d or P.n != n:
        raise ValueError("marginal family shape does not match the tensor")
    blocks = mode_orthogonal_blocks(P)
    marginal_orth = np.hstack(blocks)

    support = np.argwhere(A.data > 0)
    if support.size == 0:
        raise ContractViolation("tensor has empty support")
    cells = support.shape[0]
    # one row per support cell, then rows <p_j, y_j> = 0, one per mode
    constraints = np.zeros((cells + d, d * n))
    for j in range(d):
        constraints[np.arange(cells), j * n + support[:, j]] = 1.0
        constraints[cells + j, j * n:(j + 1) * n] = P.p[j]
    degenerate = _svd_bases(constraints)[1]

    if degenerate.shape[1] == 0:
        complement = marginal_orth
    else:
        residual_basis = marginal_orth - degenerate @ (degenerate.T @ marginal_orth)
        complement = _svd_bases(residual_basis)[0]

    mode_blocks = [_svd_bases(complement @ (complement.T @ emb))[0] for emb in blocks]
    return SubspaceBases(marginal_orth=marginal_orth, degenerate=degenerate,
                         complement=complement, mode_blocks=mode_blocks)


def iteration_bound(n: int, epsilon: float, mass: float, eta: float) -> float:
    """Certified ceiling on the number of scaling steps before stopping."""
    return 2.0 * (math.sqrt(n) + 1.0) ** 2 / epsilon**2 * math.log(mass / eta)


def sinkhorn_scale(
    A: Tensor,
    P: MarginalFamily,
    cfg: SinkhornConfig,
    bases: Optional[SubspaceBases] = None,
) -> tuple[Tensor, np.ndarray, SinkhornTrace]:
    """Scale A toward the transport polytope of P, one greedy mode at a time.

    Returns the stopped iterate (a probability tensor whose marginals are
    all within 2*epsilon of their targets in l1), the accumulated (d, n)
    log-domain exponents X with ``apply_scaling(A/||A||_1, X)`` equal to
    the stopped iterate, and the full trace.

    Each step rescales the chosen mode of a working copy of A/||A||_1 in
    place.  When the working iterate passes the stopping test, it is
    rebuilt once from A/||A||_1 and X and tested again: if the rebuilt
    iterate passes, it is returned; otherwise the steps go on from it and
    the discarded test leaves no record.  A run also rebuilds after
    ``_REBUILD_STEPS`` steps without one.  The trace counts the rebuilds
    and keeps the largest l1 gap between working and rebuilt marginals.

    Raises :class:`NonConvergenceError` (carrying the trace) if the cap on
    iterations is hit; for the support variant that usually means the
    input is not scalable to the polytope.
    """
    P.require_probability()
    d, n = A.d, A.n
    if (P.d, P.n) != (d, n):
        raise ValueError("marginal family shape does not match the tensor")
    data = A.data
    if cfg.variant == "positive":
        if np.any(data <= 0):
            raise ContractViolation(
                "positive variant requires a strictly positive tensor; "
                "use variant='support' for tensors with zeros"
            )
        eta = float(data.min())
    else:
        A.require_nonnegative("scaling input")
        if bases is None:
            bases = support_subspaces(A, P)
        eta = A.min_positive()
    mass = _fsum(data)
    for j, s in enumerate(_marginals(data)):
        if np.any(s <= 0):
            raise DegenerateSliceError(f"mode {j} has a slice with zero mass")

    bound = iteration_bound(n, cfg.epsilon, mass, eta)
    max_iter = cfg.max_iter if cfg.max_iter is not None else max(16, math.ceil(4 * bound))

    data0 = data / mass
    zero_mask = data0 == 0.0 if cfg.variant == "support" else None
    log_p = np.log(P.p)
    sel_bases = bases if cfg.variant == "support" else None

    X = np.zeros((d, n))
    trace = SinkhornTrace(epsilon=cfg.epsilon, variant=cfg.variant,
                          bound=bound, eta=eta, mass=mass)

    current = data0.copy()  # equals _scaled(data0, X) while X is zero
    S = _marginals(current)
    rebuilt = True
    k = 0
    while True:
        norms = _residual_norms(S, P, sel_bases)
        worst = float(norms.max())
        if not rebuilt and (worst < cfg.epsilon or k % _REBUILD_STEPS == 0):
            current = _scaled(data0, X, zero_mask)
            fresh = _marginals(current)
            trace.rematerializations += 1
            trace.drift = max(trace.drift, float(np.abs(fresh - S).sum()))
            S, rebuilt = fresh, True
            continue
        mode = int(np.argmax(norms))
        g_val = float(S[0].sum()) - float(np.sum(P.p * X))
        if worst < cfg.epsilon:
            trace.records.append(IterationRecord(
                k=k, mode=None, residual_l1=worst, kl=None, g_value=g_val))
            trace.k_stop = k
            break
        if k >= max_iter:
            raise NonConvergenceError(
                f"no convergence after {k} scaling steps (epsilon={cfg.epsilon}); "
                "the input may not be scalable to the target polytope",
                trace=trace)
        s_mode = S[mode]
        if np.any(s_mode <= 0):
            raise DegenerateSliceError(f"mode {mode} marginal vanished at step {k}")
        # p > 0 (MarginalFamily) and s_mode > 0 (just checked), so this
        # is kl_divergence(P.p[mode], s_mode) without its mask and copies
        step = log_p[mode] - np.log(s_mode)
        trace.records.append(IterationRecord(
            k=k, mode=mode, residual_l1=worst, kl=_fsum(P.p[mode] * step),
            g_value=g_val))
        row = X[mode] + step
        # apply the increment X takes after rounding, so the working
        # iterate tracks exp(X) and rounding in X does not pile up as drift
        current *= np.exp(row - X[mode]).reshape(_axis_shape(d, mode, n))
        X[mode] = row
        S = _marginals(current)
        rebuilt = False
        k += 1

    return Tensor(current), X, trace
