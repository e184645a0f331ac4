"""End-to-end approximate tensor transport with certificates.

The entropic relaxation replaces the LP objective by
``<C,U> - H(U)/lam``; its unique minimizer is a scaling of exp(-lam*C),
so the greedy scaling iteration solves it.  The delta-approximation
pipeline shifts the cost to min 0, picks lam and epsilon from the target
accuracy and scales.  Every iterate brackets the LP optimum: rounding it
into the polytope gives a feasible plan, whose cost is an upper bound,
and its scaling exponents are dual potentials, whose c-transform gives a
lower bound.  The scaling asks for the bracket at steps 8, 16, 32, ...
and stops at the first one narrower than delta; the a-priori stopping
test at epsilon stays as the fallback.  The plan comes back with its
bracket and the policy's error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rounding import round_to_polytope
from .scaling import SinkhornConfig, SinkhornTrace, sinkhorn_scale
from .tensor import (
    MarginalFamily,
    Tensor,
    _check_family,
    _entropy,
    _fsum,
    _outer_sum,
    _row_blocks,
    _spread,
    exp_neg_scaled,
    inner,
    l1_distance,
    outer,
)

__all__ = [
    "EntropicResult",
    "TotCertificate",
    "entropic_tot",
    "entropic_bracket",
    "approx_tot",
]


@dataclass
class EntropicResult:
    """Stopped entropic iterate with its objective decomposition."""

    plan: Tensor
    cost: float  # <C, U>
    entropy: float  # H(U)
    value: float  # <C, U> - H(U)/lam
    lam: float
    scaling: np.ndarray
    trace: SinkhornTrace


@dataclass(frozen=True)
class TotCertificate:
    """What the approximate solver promises and what it observed.

    ``[bracket_low, bracket_high]`` holds the LP optimum on both stopping
    paths: ``bracket_high`` is ``value``, the cost of the returned feasible
    plan, and ``bracket_low`` is the dual bound of the final scaling
    exponents.  A certified stop has ``value - bracket_low <= delta``.
    The fallback stop at epsilon meets ``value - OPT <= delta`` through the
    policy on lam and epsilon, whose a-priori budget is
    ``theoretical_error``; its bracket can be wider than delta.  ``stop``
    says which path ended the run: ``"certified"`` (also for a constant
    cost, whose bracket has width zero) or ``"residual"``.
    """

    value: float  # <C, B> for the returned feasible plan
    bracket_low: float  # certified lower bound on the LP optimum
    delta: float
    lam: Optional[float]
    epsilon: Optional[float]
    k_stop: int
    movement_l1: float
    eta: Optional[float]  # smallest kernel entry
    theoretical_error: float  # entropic bias + rounding slack, <= delta by policy
    stop: str  # "certified" or "residual"; not in as_dict

    def __post_init__(self):
        if self.bracket_low > self.value:
            raise ValueError("certificate bracket is inverted")

    @property
    def bracket_high(self) -> float:
        return self.value

    @property
    def bracket(self) -> tuple[float, float]:
        return (self.bracket_low, self.bracket_high)

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "bracket": [self.bracket_low, self.bracket_high],
            "delta": self.delta,
            "lambda": self.lam,
            "epsilon": self.epsilon,
            "k_stop": self.k_stop,
            "movement_l1": self.movement_l1,
        }


def entropic_tot(C: Tensor, P: MarginalFamily, lam: float, epsilon: float) -> EntropicResult:
    """Scale exp(-lam*C) toward the polytope and report the stopped iterate."""
    plan, scaling, trace = sinkhorn_scale(exp_neg_scaled(C, lam), P,
                                          SinkhornConfig(epsilon=epsilon))
    cost = inner(C, plan)
    ent = _entropy(plan.data)  # the scaling returns a probability tensor
    return EntropicResult(plan=plan, cost=cost, entropy=ent,
                          value=cost - ent / lam, lam=lam,
                          scaling=scaling, trace=trace)


def entropic_bracket(value: float, lam: float, n: int, d: int) -> tuple[float, float]:
    """Interval [value, value + d*log(n)/lam] bracketing the LP optimum."""
    return value, value + d * math.log(n) / lam


def _lower_bound(C: Tensor, P: MarginalFamily, X: np.ndarray, lam: float) -> float:
    """Lower bound on min <C, B> over the transport polytope of P, from
    exponents X that scale exp(-lam*C) up to a constant factor.

    ``y_j = X_j / lam`` are dual potentials of the transport LP.  ``y_0``
    is replaced by the c-transform of the others,
    ``y_0[i] = min over i_1..i_{d-1} of C[i, ...] - sum_{j>0} y_j[i_j]``,
    which makes ``sum_j y_j[i_j] <= C[i_0, ..., i_{d-1}]`` on every cell,
    so ``sum_j <p_j, y_j>`` bounds every feasible plan's cost from below
    whatever X is.  X_0, and with it the kernel's constant factor and
    normalization, drops out.
    """
    Y = X / lam
    # sum_{j>0} y_j[i_j], flat over (i_1, ..., i_{d-1})
    tail = _outer_sum(Y[1:]).ravel()
    costs = C.data.reshape(C.n, -1)
    for rows in _row_blocks(C.n, tail.size):
        Y[0, rows] = (costs[rows] - tail).min(axis=1)
    return _fsum(P.p * Y)


def approx_tot(
    C: Tensor,
    P: MarginalFamily,
    delta: float,
    lam: Optional[float] = None,
    epsilon: Optional[float] = None,
    trace_out=None,
) -> tuple[Tensor, TotCertificate]:
    """Feasible plan whose cost is within delta of the transport optimum.

    lam and epsilon default to the accuracy policy ``lam = 2 d log(n)/delta``
    and ``epsilon = min(1/4, delta/(16 d omega))``; both can be overridden
    for experimentation.  The scaling stops at the first check whose
    rounded plan costs at most delta above the dual lower bound, or else at
    epsilon.  Constant costs short-circuit to the product plan.
    ``trace_out`` names a file to receive the iteration trace as JSON lines.
    """
    _check_family(C, P)
    P.require_probability()
    if not delta > 0:
        raise ValueError("delta must be positive")
    d, n = C.d, C.n
    shift, omega = _spread(C)

    if omega == 0.0:
        plan = outer(list(P.p))
        value = inner(C, plan)
        if trace_out is not None:
            empty = SinkhornTrace(epsilon=0.25, k_stop=0, bound=0.0, eta=None, mass=None)
            empty.write_jsonl(trace_out)
        cert = TotCertificate(
            value=value, bracket_low=value,
            delta=delta, lam=None, epsilon=None, k_stop=0,
            movement_l1=0.0, eta=None,
            theoretical_error=0.0, stop="certified")
        return plan, cert

    lam_eff = lam if lam is not None else 2.0 * d * math.log(n) / delta
    eps_eff = epsilon if epsilon is not None else min(0.25, delta / (16.0 * d * omega))

    def bracket(iterate: Tensor, X: np.ndarray) -> tuple[Tensor, float, float]:
        low = _lower_bound(C, P, X, lam_eff)
        plan = round_to_polytope(iterate, P)
        return plan, low, inner(C, plan)

    certified = []

    def certify(iterate: Tensor, X: np.ndarray) -> bool:
        plan, low, value = bracket(iterate, X)
        if value - low > delta:
            return False
        certified.append((plan, low, value))
        return True

    # no reference outlives its call: the shifted cost is dropped once the
    # kernel is built (the checks read C; the c-transform takes the shift
    # into y_0), and the kernel once the scaling returns
    iterate, X, trace = sinkhorn_scale(
        exp_neg_scaled(Tensor._adopt(C.data - shift), lam_eff), P,
        SinkhornConfig(epsilon=eps_eff), certify=certify)
    if trace_out is not None:
        trace.write_jsonl(trace_out)
    plan, low, value = certified[0] if certified else bracket(iterate, X)
    cert = TotCertificate(
        # low <= OPT <= value; at an optimal plan rounding can put low an ulp above
        value=value, bracket_low=min(low, value),
        delta=delta, lam=lam_eff, epsilon=eps_eff,
        k_stop=trace.k_stop, movement_l1=l1_distance(plan, iterate),
        eta=trace.eta,
        theoretical_error=d * math.log(n) / lam_eff + 8.0 * d * omega * eps_eff,
        stop=trace.stop)
    return plan, cert
