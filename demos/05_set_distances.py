"""Distances between sets of histograms through structured cost tensors.

A ground metric on n points lifts to a cost tensor over index tuples;
transport under that cost compares ordered lists of measures.  When the
cost is weakly bisymmetric, reordering both lists the same way only
relabels tensor axes, so the comparison does not depend on their order.
Run with:  python3 demos/05_set_distances.py
"""

import numpy as np

import tensorot as tot

rng = np.random.default_rng(5)

# A metric on three sites.
ground = np.array([[0.0, 1.0, 1.8],
                   [1.0, 0.0, 1.0],
                   [1.8, 1.0, 0.0]])
print("ground metric valid:", tot.check_distance_matrix(ground).ok)

# Lift it to pairs of sites (order 4, two measures on each side).
C_sum = tot.lift_ground_metric(ground, 4, mode="sum")
C_match = tot.lift_ground_metric(ground, 4, mode="matching")
for name, C in (("sum", C_sum), ("matching", C_match)):
    full, weak = tot.check_bisymmetric(C)
    dist = tot.check_distance_matrix(tot.matricize(C)).ok
    print(f"{name:9} lift: bisymmetric={full}  weak={weak}  matricization-is-metric={dist}")

def histograms(k):
    p = 0.3 + rng.random((k, 3))
    return p / p.sum(axis=1, keepdims=True)

left, right = histograms(2), histograms(2)

# Ordered comparison: a genuine metric on pairs of histograms.
d_lr = tot.pair_distance(C_sum, left, right)
d_rl = tot.pair_distance(C_sum, right, left)
print("\npair distance %.4f, zero on itself: %.1e"
      % (d_lr, tot.pair_distance(C_sum, left, left)))

# The triangle inequality comes from gluing feasible plans along their
# shared middle marginals.
mid = histograms(2)
d_lm = tot.pair_distance(C_sum, left, mid)
d_mr = tot.pair_distance(C_sum, mid, right)
print("triangle: %.4f <= %.4f + %.4f = %.4f"
      % (d_lr, d_lm, d_mr, d_lm + d_mr))

# Unordered comparison: every common reordering gives the same LP.
res = tot.set_distance(C_sum, left, right)
print("\nset distance %.4f via permutation %s" % (res.distance, res.best_permutation))
shuffled = tot.set_distance(C_match, left[::-1], left)
print("matching cost on the same multiset, shuffled: %.1e (multisets equal: %s)"
      % (shuffled.distance, shuffled.multisets_equal))

# Entropic solving trades exactness for speed at larger sizes.
approx = tot.set_distance(C_sum, left, right, solver="entropic", delta=0.05)
print("entropic set distance %.4f (within 0.05 of %.4f)" % (approx.distance, res.distance))
