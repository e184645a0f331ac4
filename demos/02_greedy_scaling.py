"""Greedy scaling to prescribed marginals, with its certificates.

Each step fixes the single worst mode.  The trace records which mode was
chosen, how far the marginals were off, and the potential that the
analysis shows must shrink by the KL divergence of every step.
Run with:  python3 demos/02_greedy_scaling.py
"""

import numpy as np

import tensorot as tot

rng = np.random.default_rng(11)

n, d = 4, 3
A = tot.Tensor(0.1 + rng.random((n,) * d))
p = 0.3 + rng.random((d, n))
P = tot.MarginalFamily(p / p.sum(axis=1, keepdims=True))

cfg = tot.SinkhornConfig(epsilon=0.01)
scaled, X, trace = tot.sinkhorn_scale(A, P, cfg)

print(f"stopped after {trace.k_stop} steps "
      f"(certified ceiling {trace.bound:.0f})")
print("first steps (k, mode, residual, KL step):")
for rec in trace.records[:6]:
    kl = "     -" if rec.kl is None else f"{rec.kl:.2e}"
    print(f"  k={rec.k:3d}  mode={rec.mode}  residual={rec.residual_l1:.3e}  kl={kl}")

# Every marginal lands within 2*epsilon of its target in l1.
for j in range(d):
    gap = np.abs(tot.marginal(scaled, j) - P.p[j]).sum()
    print(f"mode {j}: marginal gap {gap:.2e} < {2 * cfg.epsilon}")

# The exponents reproduce the stopped iterate exactly.
start = tot.Tensor(A.data / tot.l1_norm(A))
print("exponents reproduce the iterate:",
      np.array_equal(tot.apply_scaling(start, X).data, scaled.data))

# The potential decreases by exactly the per-step KL divergence.
g, kl = trace.g_values, trace.kl_values
drift = max(abs((g[k] - g[k + 1]) - kl[k]) for k in range(1, trace.k_stop))
print("potential-vs-KL telescoping drift: %.1e" % drift)

# A tensor with zeros is scaled on its support: its zeros alone select the
# residual that leaves out the directions the scaling cannot move along.
pattern = tot.solve_exact_tot(tot.Tensor(rng.random((n,) * d)), P).plan.data > 1e-9
S = tot.Tensor(np.where(pattern, 0.5 + rng.random(pattern.shape), 0.0))
cfg = tot.SinkhornConfig(epsilon=0.05)
sparse_scaled, _, sparse_trace = tot.sinkhorn_scale(S, P, cfg)
print(f"support variant: {int(pattern.sum())}/{pattern.size} cells, "
      f"k_stop={sparse_trace.k_stop}, "
      f"worst gap {max(np.abs(tot.marginal(sparse_scaled, j) - P.p[j]).sum() for j in range(d)):.3e}")
