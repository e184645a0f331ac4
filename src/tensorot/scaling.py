"""Greedy Sinkhorn scaling of nonnegative tensors to prescribed marginals.

Each step rescales the single mode whose marginal deviates most, measured
by the l1 norm of the marginal after the component along the target has
been projected out.  For a tensor with zeros that residual also loses its
component along the degenerate exponent directions, which cancel on every
support cell, so the scaling cannot move along them; a positive tensor
has none.

A step adds its log-domain update to the accumulated exponents and
multiplies the chosen mode's slices of a private working iterate in place
by its exponential, as Greenkhorn does (Altschuler, Weed & Rigollet,
NeurIPS 2017).  The working iterate is rebuilt from the normalized input
and the exponents only when it passes the stopping test, and then the test
is taken again on the rebuilt iterate, so the returned exponents reproduce
the returned iterate exactly.  Long runs also rebuild every
``_REBUILD_STEPS`` steps, which keeps the rounding drift of the working
iterate bounded.

A caller may pass a ``certify`` callable, which is shown the rebuilt
iterate at steps ``_CERTIFY_FIRST``, twice that, and so on, and ends the
run when it returns true; ``approx_tot`` stops there on a certified
duality gap.

Each step leaves one :class:`IterationRecord`, which is exactly one line
of the JSONL trace; its ``kl`` is K(p_j || s_j) of the applied step, taken
from the same log-ratio vector the step adds to the exponents and summed
correctly rounded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolation, DegenerateSliceError, NonConvergenceError
from .tensor import (MarginalFamily, Tensor, _axis_shape, _check_family, _fsum, _marginals,
                     _mass, _scaled, marginal)

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
# Relative cut on the eigenvalues of the support Gram matrix: they are
# squared singular values, so the SVD cut _RCOND does not carry over.
_EIG_CUT = 1e-9
# Smallest epsilon: in float arithmetic the l1 residual stops falling at
# 6e-17 to 4e-16 (measured for d = 2..5, n = 2..1000), far below this floor.
_EPSILON_FLOOR = 1e-13
# The working iterate is also rebuilt after this many steps without a
# rebuild: its drift grows about linearly with the steps (about 2e-17 in
# l1 per step on d=3, n=6 kernels), and a long run must stay a probability
# tensor to 1e-12.
_REBUILD_STEPS = 1024
# A ``certify`` callable is asked at this step and at each doubling of it:
# a run of k steps pays at most log2(k / _CERTIFY_FIRST) + 1 checks.
_CERTIFY_FIRST = 8


@dataclass(frozen=True)
class SinkhornConfig:
    """Stopping threshold in [``_EPSILON_FLOOR``, 1/2) and safety cap for one run."""

    epsilon: float
    max_iter: Optional[int] = None  # settable so that tests reach the cap in a few steps

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ContractViolation("epsilon must lie in (0, 1/2)")
        if self.epsilon < _EPSILON_FLOOR:
            raise ContractViolation(f"epsilon={self.epsilon!r} is too small for a residual "
                                    f"in float arithmetic; the floor is {_EPSILON_FLOOR}")


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
    records: list[IterationRecord] = field(default_factory=list)
    k_stop: Optional[int] = None
    bound: Optional[float] = None
    eta: Optional[float] = None
    mass: Optional[float] = None
    rematerializations: int = 0  # rebuilds of the iterate from the exponents
    drift: float = 0.0  # largest l1 gap, at a rebuild, of working vs rebuilt marginals
    stop: Optional[str] = None  # "residual" or "certified"; not in the JSONL

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
    """Orthonormal bases of the subspaces steering the scaling of a tensor with zeros.

    All live in the stacked (d*n)-dimensional space of per-mode exponent
    vectors: ``marginal_orth`` collects every direction orthogonal to its
    mode's target marginal; ``degenerate`` the directions that leave the
    scaling unchanged on the support, which are removed from each mode's
    projected residual; ``complement`` the orthogonal complement of the
    latter inside the former.
    """

    marginal_orth: np.ndarray
    degenerate: np.ndarray
    complement: np.ndarray

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


def _line_residuals(S: np.ndarray, p: np.ndarray, p_sq: np.ndarray) -> np.ndarray:
    """Each row of S minus its orthogonal projection onto the same row of p,
    whose squared norms ``(p * p).sum(axis=1)`` are p_sq, in one new array.

    It is ``S - ((S * p).sum(axis=1) / p_sq)[:, None] * p``, with every
    product and difference written into the array it returns."""
    out = np.multiply(S, p)
    coef = np.add.reduce(out, axis=1)
    coef /= p_sq
    np.multiply(coef[:, None], p, out=out)
    return np.subtract(S, out, out=out)


def residual(A: Tensor, p, mode: int) -> tuple[np.ndarray, float]:
    """Marginal minus its projection onto the target direction, plus its l1 norm."""
    p = np.asarray(p, dtype=float)
    if not np.any(p):
        raise ValueError("target marginal must be nonzero")
    p = p[None, :]
    r = _line_residuals(marginal(A, mode)[None, :], p, (p * p).sum(axis=1))[0]
    return r, float(np.abs(r).sum())


def select_mode(A: Tensor, P: MarginalFamily) -> int:
    """Mode with the largest residual norm, measured as ``sinkhorn_scale``
    measures it; ties break to the smallest index."""
    bases = None if A.data.all() else support_subspaces(A, P)
    p_sq = (P.p * P.p).sum(axis=1)
    return int(np.argmax(_residual_norms(_marginals(A.data), P, bases, p_sq)))


def _residual_norms(S: np.ndarray, P: MarginalFamily, bases: Optional[SubspaceBases],
                    p_sq: np.ndarray):
    """l1 residual norm per mode: the projected line residual r_j, with p_sq
    the squared norms of the targets.

    With ``bases`` whose degenerate part D is nonempty, mode j's residual is
    embedded into its block and loses its component along D, as
    ``e_j(r_j) - D (D_j^T r_j)`` with D_j block j's rows of D.
    """
    R = _line_residuals(S, P.p, p_sq)
    if bases is None or not bases.dim_degenerate:
        return np.add.reduce(np.absolute(R, out=R), axis=1)
    d = P.d
    D = bases.degenerate.reshape(d, P.n, -1)
    full = -np.einsum("mnk,jk->jmn", D, np.einsum("jnk,jn->jk", D, R))
    full[np.arange(d), np.arange(d)] += R
    return np.add.reduce(np.absolute(full, out=full), axis=(1, 2))


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
    every positive entry (so the scaling cannot see them, and the residuals
    leave them out); its complement inside span(K), K = ``marginal_orth``,
    is where the iteration moves.
    Both come from one eigendecomposition of K^T G K, with eigenvalues at
    most ``_EIG_CUT`` times the largest taken as null.  G = M^T M for the
    0/1 matrix M with a row per support cell; it is built from the
    pairwise two-mode counts of the support indicator, never from M.
    """
    _check_family(A, P)
    d, n = A.d, A.n
    marginal_orth = np.hstack(mode_orthogonal_blocks(P))

    support = (A.data > 0).astype(float)
    counts = _marginals(support)
    if not counts[0].any():
        raise ContractViolation("tensor has empty support")
    gram = np.zeros((d, n, d, n))
    for j in range(d):
        for k in range(j + 1, d):
            gram[j, :, k, :] = np.einsum(support, range(d), [j, k])
    gram = gram.reshape(d * n, d * n)
    gram += gram.T + np.diag(counts.ravel())
    w, v = np.linalg.eigh(marginal_orth.T @ gram @ marginal_orth)
    null = int(np.count_nonzero(w <= _EIG_CUT * w.max(initial=0.0)))
    return SubspaceBases(marginal_orth=marginal_orth, degenerate=marginal_orth @ v[:, :null],
                         complement=marginal_orth @ v[:, null:])


def iteration_bound(n: int, epsilon: float, mass: float, eta: float) -> float:
    """Certified ceiling on the number of scaling steps before stopping.

    log(mass/eta) is taken as a difference of logs only where the quotient
    overflows, as it does when eta is subnormal.  Raises
    :class:`ContractViolation` where epsilon is so small that the bound is
    not a finite float.
    """
    ratio = mass / eta
    log_ratio = math.log(ratio) if math.isfinite(ratio) else math.log(mass) - math.log(eta)
    eps_sq = epsilon**2
    bound = 2.0 * (math.sqrt(n) + 1.0) ** 2 / eps_sq * log_ratio if eps_sq else math.inf
    if not math.isfinite(bound):
        raise ContractViolation(f"epsilon={epsilon!r} is too small for a finite iteration bound")
    return bound


def sinkhorn_scale(
    A: Tensor,
    P: MarginalFamily,
    cfg: SinkhornConfig,
    *,
    certify: Optional[Callable[[Tensor, np.ndarray], bool]] = None,
) -> tuple[Tensor, np.ndarray, SinkhornTrace]:
    """Scale A toward the transport polytope of P, one greedy mode at a time.

    A must be nonnegative.  A zero entry alone makes the run leave the
    degenerate directions of ``support_subspaces`` out of its residuals,
    take eta as the smallest positive entry, and keep the zeros exactly.

    Returns the stopped iterate (a probability tensor; when the stopping
    test ends the run, its marginals are all within 2*epsilon of their
    targets in l1), the accumulated (d, n) log-domain exponents X with
    ``apply_scaling(A/||A||_1, X)`` equal to the stopped iterate, and the
    full trace.

    Each step rescales the chosen mode of a working copy of A/||A||_1 in
    place.  When the working iterate passes the stopping test, it is
    rebuilt once from A/||A||_1 and X and tested again: if the rebuilt
    iterate passes, it is returned; otherwise the steps go on from it and
    the discarded test leaves no record.  A run also rebuilds after
    ``_REBUILD_STEPS`` steps without one.  The trace counts the rebuilds
    and keeps the largest l1 gap between working and rebuilt marginals.

    With ``certify``, the run also rebuilds at steps ``_CERTIFY_FIRST``,
    twice that, and so on, and calls ``certify(iterate, X)`` on the rebuilt
    iterate and a copy of its exponents.  If it returns true, the run stops
    there with its final record, as on the stopping test, and returns that
    iterate; otherwise the steps go on from it.  ``trace.stop`` says which
    test ended the run.  Without ``certify`` no check step exists.

    Raises :class:`NonConvergenceError` (carrying the trace) if the cap on
    iterations is hit or the iterate's marginals stop being finite; for a
    tensor with zeros that usually means the input is not scalable to the
    polytope.
    """
    P.require_probability()
    _check_family(A, P)
    d, n = A.d, A.n
    data = A.data
    eta = float(data.min())
    if eta < 0:
        raise ContractViolation("scaling input must be entrywise nonnegative")
    bases = None
    if eta == 0:
        bases = support_subspaces(A, P)
        eta = A.min_positive()
    mass = _mass(data, "scaling input")

    bound = iteration_bound(n, cfg.epsilon, mass, eta)
    max_iter = cfg.max_iter if cfg.max_iter is not None else max(16, math.ceil(4 * bound))

    # data / mass is never stored whole: the run holds the input and its
    # iterate, and a rebuild divides the input anew a block at a time
    zero_mask = None if bases is None else data / mass == 0.0
    log_p = np.log(P.p)
    p_sq = (P.p * P.p).sum(axis=1)

    X = np.zeros((d, n))
    PX = np.zeros((d, n))  # P.p * X, one row updated per step
    trace = SinkhornTrace(epsilon=cfg.epsilon, bound=bound, eta=eta, mass=mass)

    shapes = [_axis_shape(d, j, n) for j in range(d)]
    check_at = _CERTIFY_FIRST if certify is not None else None
    current = data / mass  # equals _scaled(data, X, mass=mass) while X is zero
    S = _marginals(current)
    for j, s in enumerate(S):
        if np.any(s <= 0):
            raise DegenerateSliceError(f"mode {j} has a slice with zero mass")
    rebuilt = True
    k = 0
    while True:
        total = float(np.add.reduce(S[0]))
        if not math.isfinite(total):
            # an overflowed marginal would only turn the residuals into NaN
            raise NonConvergenceError(
                f"the iterate's marginals are not finite at scaling step {k} "
                f"(epsilon={cfg.epsilon}); the input may not be scalable to the "
                "target polytope", trace=trace)
        norms = _residual_norms(S, P, bases, p_sq)
        mode = int(norms.argmax())
        worst = float(norms[mode])
        if not rebuilt and (worst < cfg.epsilon or k % _REBUILD_STEPS == 0 or k == check_at):
            current = None  # free the old iterate before the new one is built
            current = _scaled(data, X, zero_mask, mass)
            fresh = _marginals(current)
            trace.rematerializations += 1
            trace.drift = max(trace.drift, float(np.abs(fresh - S).sum()))
            S, rebuilt = fresh, True
            continue
        g_val = total - float(np.add.reduce(PX, axis=None))
        if worst < cfg.epsilon:
            trace.stop = "residual"
            iterate = Tensor._adopt(current)
        elif k == check_at:
            check_at *= 2
            iterate = Tensor._adopt(current)
            if certify(iterate, X.copy()):
                trace.stop = "certified"
            else:
                current = current.copy()  # adopting froze it
                iterate = None
        if trace.stop is not None:
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
        if not s_mode.min() > 0:
            raise DegenerateSliceError(f"mode {mode} marginal vanished at step {k}")
        # p > 0 (MarginalFamily) and s_mode > 0 (just checked), so this
        # is kl_divergence(P.p[mode], s_mode) without its mask and copies
        step = log_p[mode] - np.log(s_mode)
        trace.records.append(IterationRecord(
            k=k, mode=mode, residual_l1=worst, kl=math.fsum((P.p[mode] * step).tolist()),
            g_value=g_val))
        row = X[mode] + step
        # apply the increment X takes after rounding, so the working
        # iterate tracks exp(X) and rounding in X does not pile up as drift
        current *= np.exp(row - X[mode]).reshape(shapes[mode])
        X[mode] = row
        np.multiply(P.p[mode], row, out=PX[mode])
        S = _marginals(current)
        rebuilt = False
        k += 1

    return iterate, X, trace
