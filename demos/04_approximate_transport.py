"""Delta-accurate multi-marginal transport values, checked against the LP.

The pipeline entropically regularizes the cost, scales the kernel, and
stops once the rounded iterate's cost is within delta of the dual lower
bound of the scaling exponents.  The exact simplex oracle validates
everything at this scale.
Run with:  python3 demos/04_approximate_transport.py
"""

import numpy as np

import tensorot as tot

rng = np.random.default_rng(42)

n, d = 3, 3
C = tot.Tensor(rng.random((n,) * d))
p = 0.3 + rng.random((d, n))
P = tot.MarginalFamily(p / p.sum(axis=1, keepdims=True))

exact = tot.solve_exact_tot(C, P)
print("exact LP value     %.6f  (%d simplex pivots)" % (exact.value, exact.iterations))

for delta in (0.5, 0.1, 0.02):
    plan, cert = tot.approx_tot(C, P, delta)
    print(f"delta={delta:<5} value {cert.value:.6f}  "
          f"true gap {cert.value - exact.value:+.2e}  "
          f"lambda {cert.lam:6.1f}  k_stop {cert.k_stop:5d}  "
          f"moved {cert.movement_l1:.2e}")

# The certificate brackets the LP value: the dual lower bound of the
# scaling exponents and the rounded plan's cost, within delta when certified.
plan, cert = tot.approx_tot(C, P, 0.1)
print("bracket [%.4f, %.4f], width %.4f, holds the lp value %.4f"
      % (cert.bracket_low, cert.bracket_high, cert.bracket_high - cert.bracket_low,
         exact.value))
print("error budget %.4f <= delta %.4f by the parameter policy"
      % (cert.theoretical_error, cert.delta))

# Tightening lambda narrows the bracket around the LP value.
print("\nbracket width vs lambda (epsilon fixed at 0.05):")
for lam in (5.0, 20.0, 80.0):
    res = tot.entropic_tot(C, P, lam=lam, epsilon=0.05)
    low, high = tot.entropic_bracket(res.value, lam, n, d)
    print(f"  lambda={lam:5.1f}: [{low: .4f}, {high: .4f}]  lp value {exact.value:.4f}")

# The scalability question behind the nonnegative theory is itself an LP.
vertex = exact.plan.data > 1e-9
print("\noptimal vertex support is scalable:",
      tot.scalability_check(tot.Tensor(vertex.astype(float)), P))
