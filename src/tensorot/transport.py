"""End-to-end approximate tensor transport with certificates.

The entropic relaxation replaces the LP objective by
``<C,U> - H(U)/lam``; its unique minimizer is a scaling of exp(-lam*C),
so the greedy scaling iteration solves it.  The delta-approximation
pipeline shifts the cost to min 0, picks lam and epsilon from the target
accuracy, scales, rounds the stopped iterate into the polytope, and
returns the plan with a bracket and error-budget certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonConvergenceError
from .rounding import round_to_polytope
from .scaling import SinkhornConfig, SinkhornTrace, sinkhorn_scale
from .tensor import (
    MarginalFamily,
    Tensor,
    _check_family,
    entropy,
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
    """What the approximate solver promises and what it observed."""

    value: float  # <C, B> for the returned feasible plan
    entropic_value: Optional[float]  # objective of the stopped iterate
    bracket_low: float
    bracket_high: float
    delta: float
    lam: Optional[float]
    epsilon: Optional[float]
    k_stop: int
    movement_l1: float
    omega: float  # spread max - min of the cost
    eta: Optional[float]  # smallest kernel entry
    shift: float  # subtracted cost minimum
    theoretical_error: float  # bracket width + rounding slack, <= delta by policy

    def __post_init__(self):
        if self.bracket_low > self.bracket_high:
            raise ValueError("certificate bracket is inverted")

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


def entropic_tot(
    C: Tensor,
    P: MarginalFamily,
    lam: float,
    epsilon: float,
    max_iter: Optional[int] = None,
) -> EntropicResult:
    """Scale exp(-lam*C) toward the polytope and report the stopped iterate."""
    kernel = exp_neg_scaled(C, lam)
    cfg = SinkhornConfig(epsilon=epsilon, max_iter=max_iter)
    plan, scaling, trace = sinkhorn_scale(kernel, P, cfg)
    cost = inner(C, plan)
    ent = entropy(plan)
    return EntropicResult(plan=plan, cost=cost, entropy=ent,
                          value=cost - ent / lam, lam=lam,
                          scaling=scaling, trace=trace)


def entropic_bracket(value: float, lam: float, n: int, d: int) -> tuple[float, float]:
    """Interval [value, value + d*log(n)/lam] bracketing the LP optimum."""
    return value, value + d * math.log(n) / lam


def approx_tot(
    C: Tensor,
    P: MarginalFamily,
    delta: float,
    lam: Optional[float] = None,
    epsilon: Optional[float] = None,
    max_iter: Optional[int] = None,
    trace_out=None,
) -> tuple[Tensor, TotCertificate]:
    """Feasible plan whose cost is within delta of the transport optimum.

    lam and epsilon default to the accuracy policy ``lam = 2 d log(n)/delta``
    and ``epsilon = min(1/4, delta/(16 d omega))``; both can be overridden
    for experimentation.  Constant costs short-circuit to the product plan.
    ``trace_out`` names a file to receive the iteration trace as JSON lines.
    """
    _check_family(C, P)
    P.require_probability()
    if not delta > 0:
        raise ValueError("delta must be positive")
    d, n = C.d, C.n
    shift = float(C.data.min())
    shifted = Tensor._adopt(C.data - shift)
    omega = float(shifted.data.max())

    if omega == 0.0:
        plan = outer(list(P.p))
        value = inner(C, plan)
        if trace_out is not None:
            empty = SinkhornTrace(epsilon=0.25, variant="positive", k_stop=0,
                                  bound=0.0, eta=None, mass=None)
            empty.write_jsonl(trace_out)
        cert = TotCertificate(
            value=value, entropic_value=None,
            bracket_low=value, bracket_high=value,
            delta=delta, lam=None, epsilon=None, k_stop=0,
            movement_l1=0.0, omega=0.0, eta=None, shift=shift,
            theoretical_error=0.0)
        return plan, cert

    lam_eff = lam if lam is not None else 2.0 * d * math.log(n) / delta
    eps_eff = epsilon if epsilon is not None else min(0.25, delta / (16.0 * d * omega))

    try:
        res = entropic_tot(shifted, P, lam_eff, eps_eff, max_iter=max_iter)
    except NonConvergenceError as exc:
        exc.partial = {
            "delta": delta, "lambda": lam_eff, "epsilon": eps_eff,
            "omega": omega, "shift": shift,
            "k_reached": len(exc.trace.records) if exc.trace else None,
        }
        raise
    if trace_out is not None:
        res.trace.write_jsonl(trace_out)
    plan = round_to_polytope(res.plan, P)
    movement = l1_distance(plan, res.plan)
    value = inner(C, plan)
    entropic_value = res.value + shift
    low, high = entropic_bracket(entropic_value, lam_eff, n, d)
    cert = TotCertificate(
        value=value, entropic_value=entropic_value,
        bracket_low=low, bracket_high=high,
        delta=delta, lam=lam_eff, epsilon=eps_eff,
        k_stop=res.trace.k_stop, movement_l1=movement,
        omega=omega, eta=res.trace.eta, shift=shift,
        theoretical_error=d * math.log(n) / lam_eff + 8.0 * d * omega * eps_eff)
    return plan, cert
