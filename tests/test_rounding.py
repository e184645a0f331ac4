"""Rounding into the transport polytope: shrink passes, correction, bounds."""

import math

import numpy as np
import pytest

from tensorot import (
    ContractViolation,
    MarginalFamily,
    Tensor,
    all_marginals,
    l1_distance,
    l1_norm,
    rank_one_correction,
    round_to_polytope,
    shrink_to_submarginals,
)

from conftest import feasible_plan, max_marginal_gap, random_marginals, random_positive_tensor


def movement_budget(F, P):
    return 2.0 * float(np.abs(all_marginals(F) - P.p).sum())


class TestShrink:
    def test_feasible_input_untouched(self, rng):
        P = random_marginals(rng, 3, 3)
        F = feasible_plan(rng, P)
        G, qs = shrink_to_submarginals(F, P)
        assert np.abs(G.data - F.data).max() < 1e-12
        assert np.abs(qs - P.p).max() < 1e-12

    def test_hand_example(self):
        F = Tensor([[0.5, 0.0], [0.0, 0.5]])
        P = MarginalFamily([[0.6, 0.4], [0.6, 0.4]])
        G, qs = shrink_to_submarginals(F, P)
        assert np.allclose(G.data, [[0.5, 0.0], [0.0, 0.4]], atol=1e-15)
        assert np.allclose(qs, [[0.5, 0.4], [0.5, 0.4]], atol=1e-15)

    def test_monotone_and_capped(self, rng):
        for _ in range(20):
            F = random_positive_tensor(rng, 3, 3)
            P = random_marginals(rng, 3, 3)
            G, qs = shrink_to_submarginals(F, P)
            assert np.all(G.data <= F.data + 1e-15)
            assert np.all(qs <= P.p + 1e-12)

    def test_common_mass(self, rng):
        F = random_positive_tensor(rng, 4, 2)
        P = random_marginals(rng, 4, 2)
        _, qs = shrink_to_submarginals(F, P)
        masses = qs.sum(axis=1)
        assert np.abs(masses - masses[0]).max() < 1e-12

    def test_zero_tensor_rejected(self):
        P = MarginalFamily([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ContractViolation):
            shrink_to_submarginals(Tensor(np.zeros((2, 2))), P)

    @pytest.mark.parametrize("value", [1e308, 0.6e308])
    def test_rejects_an_overflowing_mass(self, value):
        # 1e308: a marginal sum overflows; 0.6e308: only their total does
        P = MarginalFamily([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ContractViolation, match="overflows"):
            shrink_to_submarginals(Tensor(np.full((2, 2), value)), P)

    def test_zero_slice_is_skipped(self):
        # a whole row of zeros carries no mass; its factor is 1
        F = Tensor([[0.7, 0.5], [0.0, 0.0]])
        P = MarginalFamily([[0.6, 0.4], [0.6, 0.4]])
        G, qs = shrink_to_submarginals(F, P)
        assert np.all(np.isfinite(G.data))
        assert qs[0, 1] == 0.0


class TestRankOneCorrection:
    def test_no_deficit_returns_input(self, rng):
        P = random_marginals(rng, 3, 3)
        F = feasible_plan(rng, P)
        G, qs = shrink_to_submarginals(F, P)
        B = rank_one_correction(G, qs, P)
        assert np.abs(B.data - G.data).max() < 1e-12

    def test_hand_example(self):
        G = Tensor([[0.5, 0.0], [0.0, 0.4]])
        qs = np.array([[0.5, 0.4], [0.5, 0.4]])
        P = MarginalFamily([[0.6, 0.4], [0.6, 0.4]])
        B = rank_one_correction(G, qs, P)
        assert np.allclose(B.data, [[0.6, 0.0], [0.0, 0.4]], atol=1e-12)
        assert np.allclose(all_marginals(B), P.p, atol=1e-12)

    @pytest.mark.parametrize("d, n", [(2, 200), (3, 40), (4, 24), (5, 12)])
    def test_blocks_of_slabs_match_the_whole_outer_product(self, rng, d, n):
        # the correction is added a few slabs at a time; the entries must be
        # those of the outer product formed whole, as a single block forms it
        F = random_positive_tensor(rng, d, n)
        P = random_marginals(rng, d, n)
        G, qs = shrink_to_submarginals(F, P)
        diff = np.maximum(P.p - qs, 0.0)
        whole = diff[0]
        for row in diff[1:]:
            whole = np.multiply.outer(whole, row)
        whole = whole / (P.h - math.fsum(G.data.ravel().tolist())) ** (d - 1) + G.data
        assert np.array_equal(rank_one_correction(G, qs, P).data, whole)
        assert np.array_equal(round_to_polytope(F, P).data, whole)

    def test_mass_identity(self, rng):
        for _ in range(20):
            F = random_positive_tensor(rng, 3, 3)
            P = random_marginals(rng, 3, 3)
            G, qs = shrink_to_submarginals(F, P)
            B = rank_one_correction(G, qs, P)
            h, h_prime = P.h, l1_norm(G)
            assert l1_norm(B) - h_prime == pytest.approx(h - h_prime, abs=1e-10)
            assert l1_distance(B, G) == pytest.approx(h - h_prime, abs=1e-10)

    def test_rejects_excess_marginals(self):
        G = Tensor([[0.5, 0.0], [0.0, 0.5]])
        P = MarginalFamily([[0.4, 0.6], [0.5, 0.5]])
        qs = np.array([[0.5, 0.5], [0.5, 0.5]])  # exceeds p_1 in entry 0
        with pytest.raises(ContractViolation):
            rank_one_correction(G, qs, P)


class TestRoundToPolytope:
    def test_feasible_fixed_point(self, rng):
        P = random_marginals(rng, 3, 3)
        F = feasible_plan(rng, P)
        B = round_to_polytope(F, P)
        assert l1_distance(B, F) < 1e-10

    def test_hand_example_bound(self):
        F = Tensor([[0.5, 0.0], [0.0, 0.5]])
        P = MarginalFamily([[0.6, 0.4], [0.6, 0.4]])
        B = round_to_polytope(F, P)
        assert l1_distance(B, F) == pytest.approx(0.2, abs=1e-12)
        assert movement_budget(F, P) == pytest.approx(0.8, abs=1e-12)

    def test_certificate_on_random_instances(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            F = random_positive_tensor(rng, d, n)
            F = Tensor(F.data / l1_norm(F) * float(0.7 + 0.6 * rng.random()))
            P = random_marginals(rng, d, n)
            B = round_to_polytope(F, P)
            assert max_marginal_gap(B, P, ord=np.inf) <= 1e-10
            assert B.data.min() >= 0.0
            assert l1_distance(B, F) <= movement_budget(F, P) + 1e-10

    def test_idempotent(self, rng):
        F = random_positive_tensor(rng, 3, 3)
        P = random_marginals(rng, 3, 3)
        B = round_to_polytope(F, P)
        B2 = round_to_polytope(B, P)
        assert l1_distance(B2, B) <= 1e-12

    def test_near_feasible_small_movement(self, rng):
        P = random_marginals(rng, 3, 3)
        F = feasible_plan(rng, P)
        noisy = Tensor(F.data * (1.0 + 0.01 * rng.random(F.data.shape)))
        B = round_to_polytope(noisy, P)
        assert max_marginal_gap(B, P, ord=np.inf) <= 1e-10
        assert l1_distance(B, noisy) <= movement_budget(noisy, P) + 1e-10

    def test_order_one(self):
        F = Tensor([0.2, 0.5])
        P = MarginalFamily([[0.3, 0.7]])
        B = round_to_polytope(F, P)
        assert np.allclose(B.data, [0.3, 0.7], atol=1e-12)
