"""Set distances: matricization, validators, lifts, gluing, permutation min."""

import functools
import importlib.util
import itertools
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from tensorot import (
    ContractViolation,
    DistanceCheck,
    MarginalFamily,
    Tensor,
    check_bisymmetric,
    check_distance_matrix,
    check_multiset_distance,
    contract_middle,
    cost_profile,
    glue,
    lift_ground_metric,
    matricize,
    outer,
    pair_distance,
    set_distance,
)
from tensorot import setdist
from tensorot.setdist import _same_multiset, _triangle_slack

from conftest import random_marginals


def ground_metric(n, rng=None):
    """Random metric via shortest-path closure of a symmetric weight matrix."""
    if rng is None:
        return np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])[:n, :n]
    W = rng.random((n, n)) + 0.2
    W = 0.5 * (W + W.T)
    np.fill_diagonal(W, 0.0)
    D = W.copy()
    for k in range(n):
        D = np.minimum(D, D[:, [k]] + D[[k], :])
    return D


class TestMatricize:
    def test_order_two_is_identity(self, rng):
        C = Tensor(rng.random((3, 3)))
        assert np.array_equal(matricize(C), C.data)

    def test_order_four_indexing(self, rng):
        C = Tensor(rng.random((2, 2, 2, 2)))
        D = matricize(C)
        assert D.shape == (4, 4)
        # row (0,1) = index 1, column (1,0) = index 2
        assert D[1, 2] == C.data[0, 1, 1, 0]

    def test_unflatten_roundtrip(self, rng):
        C = Tensor(rng.random((2, 2, 2, 2)))
        assert np.array_equal(matricize(C).reshape(C.data.shape), C.data)

    def test_odd_order_rejected(self, rng):
        with pytest.raises(ValueError):
            matricize(Tensor(rng.random((2, 2, 2))))


class TestDistanceMatrixCheck:
    def test_uniform_metric(self):
        D = np.ones((4, 4)) - np.eye(4)
        assert check_distance_matrix(D).ok

    def test_triangle_violation(self):
        D = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        check = check_distance_matrix(D)
        assert not check.ok
        assert "triangle" in check.violation

    def test_metric_closure_passes(self, rng):
        for n in (3, 5, 8):
            assert check_distance_matrix(ground_metric(n, rng)).ok

    def test_nonzero_diagonal(self):
        D = np.eye(2) * 0.5 + 1 - np.eye(2)
        check = check_distance_matrix(D)
        assert not check.ok
        assert check.violation == "nonzero self-distance at index 0: 0.5"

    def test_asymmetry(self):
        # values print as Python floats, not as numpy scalar reprs
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert check_distance_matrix(D).violation == "asymmetry at (0, 1): 1.0 vs 2.0"

    @pytest.mark.parametrize("D, where", [
        ([[0.0, np.nan], [np.nan, 0.0]], "(0, 1)"),
        ([[0.0, np.inf], [np.inf, 0.0]], "(0, 1)"),
        ([[np.nan]], "(0, 0)"),
    ], ids=["nan", "inf", "1x1-nan"])
    def test_non_finite_entries(self, D, where):
        # every comparison with NaN is false, so the other axioms pass it
        check = check_distance_matrix(D)
        assert (check.ok, check.violation) == (False, f"non-finite entry at {where}")
        with pytest.raises(ValueError, match=r"ground metric is invalid: non-finite entry"):
            lift_ground_metric(D, 2)

    @pytest.mark.parametrize("D", [np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(4)],
                             ids=["0x0", "2x3", "flat"])
    def test_rejects_empty_and_non_square(self, D):
        match = re.escape(f"expected a square matrix of size >= 1, got shape {D.shape}")
        with pytest.raises(ValueError, match=match):
            check_distance_matrix(D)
        with pytest.raises(ValueError, match=match):
            lift_ground_metric(D, 2)

    def test_slack_matches_full_broadcast(self, rng):
        for size in (1, 4, 7, 13):
            D = rng.random((size, size))
            D = D + D.T
            full = (D[:, None, :] + D[None, :, :]).min(axis=2) - D
            assert np.array_equal(_triangle_slack(D), full)


def pivot_slack(D):
    """Reference triangle slack, one pivot k at a time over the whole matrix."""
    best = np.full(D.shape, np.inf)
    for col in D.T:
        np.minimum(best, col[:, None] + col[None, :], out=best)
    return best - D


def slack_inputs():
    """Named even-order costs for the row-at-a-time slack: random
    non-metrics, metrics, lifts of orders 2, 4 and 6, and matrices whose
    two triangles differ in the last bits (asymmetric within the
    validators' tolerance)."""
    rng = np.random.default_rng([41, 7])
    out = {}
    for size in (1, 2, 64, 65):
        M = rng.random((size, size))
        M = M + M.T
        np.fill_diagonal(M, 0.0)
        out[f"non-metric-{size}"] = Tensor(M)
        out[f"metric-{size}"] = Tensor(ground_metric(size, rng))
    out["sum-lift-order-4-n-20"] = lift_ground_metric(ground_metric(20, rng), 4)
    for order, n in ((2, 9), (4, 8), (6, 4)):
        for mode in ("sum", "matching"):
            out[f"{mode}-lift-order-{order}"] = lift_ground_metric(ground_metric(n, rng), order,
                                                                   mode)
    for size in (2, 64, 65):
        for name in ("metric", "non-metric"):
            noise = 1e-14 * rng.random((size, size))
            np.fill_diagonal(noise, 0.0)
            out[f"asymmetric-{name}-{size}"] = Tensor(out[f"{name}-{size}"].data + noise)
    return out


class TestRowSlack:
    """_triangle_slack works a row of pairs at a time and keeps every bit."""

    @pytest.mark.parametrize("name", list(slack_inputs()))
    def test_bits_and_verdicts_match_the_pivot_loop(self, name, monkeypatch):
        C = slack_inputs()[name]
        D = matricize(C)
        assert np.array_equal(_triangle_slack(D), pivot_slack(D))
        checks = (lambda: check_distance_matrix(D), lambda: check_multiset_distance(C))
        row = [check() for check in checks]
        monkeypatch.setattr(setdist, "_triangle_slack", pivot_slack)
        assert [check() for check in checks] == row

    def test_inputs_reach_the_triangle_test(self):
        # some inputs fail a triangle and some pass them all, asymmetric
        # ones included, so the slack decides both checks' verdicts
        inputs = slack_inputs()
        verdicts = [(name, check_distance_matrix(matricize(C)).violation,
                     check_multiset_distance(C).violation) for name, C in inputs.items()]
        assert any(v and v.startswith("triangle") for _, v, _ in verdicts)
        assert any(w and w.startswith("triangle") for _, _, w in verdicts)
        assert any(v is None for name, v, _ in verdicts if name.startswith("asymmetric-"))
        assert any(w is None for name, _, w in verdicts if name.startswith("matching-lift-order-6"))


@functools.cache
def bench_grid():
    """bench/grid.py, loaded once by path under the name ``bench_grid``."""
    spec = importlib.util.spec_from_file_location(
        "bench_grid", Path(__file__).resolve().parents[1] / "bench" / "grid.py")
    grid = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = grid  # its dataclasses look their module up
    spec.loader.exec_module(grid)
    return grid


def line_metric(n=10):
    x = np.sort(np.random.default_rng(7).random(n))
    return np.abs(x[:, None] - x[None, :])


class TestScaledMetrics:
    """The validators' tolerance follows the input's largest entry, so a
    rescaled metric gets the verdict of the metric itself."""

    @pytest.mark.parametrize("scale", [1e-12, 1e-11, 1e6, 1e9])
    @pytest.mark.parametrize("metric", ["line", "points"])
    def test_scaled_metric_passes(self, metric, scale):
        D = scale * (line_metric() if metric == "line" else bench_grid().ground_points(10, 0))
        assert check_distance_matrix(D) == DistanceCheck(True, None)
        for mode in ("sum", "matching"):
            lift = lift_ground_metric(D, 4, mode)
            flags = cost_profile(lift)
            unscaled = cost_profile(lift_ground_metric(D / scale, 4, mode))
            assert flags == unscaled
            assert flags.distance_matrix == (mode == "sum")
            assert flags.multiset_distance == (mode == "matching")

    @pytest.mark.parametrize("scale", [1e-13, 1e-12, 1e-6, 1.0, 1e6, 1e9])
    def test_triangle_violation_at_every_scale(self, scale):
        D = scale * np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert check_distance_matrix(D).violation == "triangle violation: d(0,1) > d(0,2) + d(2,1)"
        assert check_multiset_distance(Tensor(D)).violation == (
            "triangle violation between tuples 0 and 1")

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e9])
    def test_bisymmetry_within_relative_tolerance(self, rng, scale):
        C = scale * lift_ground_metric(ground_metric(3, rng), 4, "matching").data
        noise = rng.random(C.shape)
        assert check_bisymmetric(Tensor(C + 1e-16 * scale * noise)) == (True, True)
        assert check_bisymmetric(Tensor(C + 1e-10 * scale * noise)) == (False, False)


class TestBisymmetry:
    def test_symmetric_matrix_is_bisymmetric(self, rng):
        M = rng.random((3, 3))
        full, weak = check_bisymmetric(Tensor(M + M.T))
        assert full and weak

    def test_random_tensor_is_neither(self, rng):
        full, weak = check_bisymmetric(Tensor(rng.random((2, 2, 2, 2))))
        assert not full and not weak

    def test_sum_lift_is_weak(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="sum")
        full, weak = check_bisymmetric(C)
        assert weak
        # the paired-index sum is order sensitive across blocks
        assert not full

    def test_matching_lift_is_fully_bisymmetric(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="matching")
        full, weak = check_bisymmetric(C)
        assert full and weak


class TestLiftGroundMetric:
    def test_order_two_both_modes(self, rng):
        delta = ground_metric(3, rng)
        for mode in ("sum", "matching"):
            C = lift_ground_metric(delta, 2, mode=mode)
            assert np.array_equal(C.data, delta)

    def test_sum_paired_zeros(self):
        C = lift_ground_metric(ground_metric(3), 4, mode="sum")
        assert C.data[0, 1, 0, 1] == 0.0
        assert C.data[0, 1, 1, 0] > 0.0

    def test_matching_multiset_zeros(self):
        C = lift_ground_metric(ground_metric(3), 4, mode="matching")
        assert C.data[0, 1, 1, 0] == 0.0
        assert C.data[0, 1, 0, 1] == 0.0
        assert C.data[0, 0, 0, 1] > 0.0

    def test_sum_matricization_is_distance(self, rng):
        C = lift_ground_metric(ground_metric(2, rng), 4, mode="sum")
        assert check_distance_matrix(matricize(C)).ok

    def test_invalid_ground_metric_rejected(self):
        bad = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            lift_ground_metric(bad, 4)


class TestPairDistance:
    def test_zero_self_distance(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="sum")
        left = random_marginals(rng, 2, 3).p
        assert pair_distance(C, left, left) <= 1e-9

    def test_positivity(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="sum")
        left = random_marginals(rng, 2, 3).p
        right = random_marginals(rng, 2, 3).p
        assert pair_distance(C, left, right) > 1e-9

    def test_symmetry_for_bisymmetric_cost(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="matching")
        left = random_marginals(rng, 2, 3).p
        right = random_marginals(rng, 2, 3).p
        a = pair_distance(C, left, right)
        b = pair_distance(C, right, left)
        assert a == pytest.approx(b, abs=1e-8)

    def test_triangle_inequality(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="sum")
        for _ in range(5):
            p1 = random_marginals(rng, 2, 3).p
            p2 = random_marginals(rng, 2, 3).p
            p3 = random_marginals(rng, 2, 3).p
            d13 = pair_distance(C, p1, p3)
            d12 = pair_distance(C, p1, p2)
            d23 = pair_distance(C, p2, p3)
            assert d13 <= d12 + d23 + 1e-8

    def test_entropic_solver_within_delta(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 2, mode="sum")
        left = random_marginals(rng, 1, 3).p
        right = random_marginals(rng, 1, 3).p
        exact = pair_distance(C, left, right, solver="exact")
        approx = pair_distance(C, left, right, solver="entropic", delta=0.1)
        assert exact - 1e-9 <= approx <= exact + 0.1


class TestGlue:
    def test_diagonal_plans(self):
        p = np.array([0.3, 0.7])
        U = Tensor(np.diag(p))
        W = glue(U, U)
        assert W.data[0, 0, 0] == pytest.approx(0.3)
        assert W.data[1, 1, 1] == pytest.approx(0.7)
        Q = contract_middle(W, 1)
        assert np.allclose(Q.data, np.diag(p), atol=1e-15)

    def test_product_plans(self):
        p = np.full(2, 0.5)
        U = outer([p, p])
        W = glue(U, U)
        Q = contract_middle(W, 1)
        assert np.allclose(Q.data, U.data, atol=1e-15)

    def test_marginal_recovery(self, rng):
        from conftest import feasible_plan

        P2 = random_marginals(rng, 2, 3)
        mid = P2.p[1]
        # two feasible couplings sharing the middle marginal
        U = feasible_plan(rng, MarginalFamily([P2.p[0], mid]))
        V = feasible_plan(rng, MarginalFamily([mid, P2.p[0]]))
        W = glue(U, V)
        # front-middle contraction recovers U, middle-back recovers V
        front_mid = W.data.sum(axis=2)
        mid_back = W.data.sum(axis=0)
        assert np.abs(front_mid - U.data).sum() < 1e-10
        assert np.abs(mid_back - V.data).sum() < 1e-10
        Q = contract_middle(W, 1)
        assert np.abs(Q.data.sum(axis=1) - P2.p[0]).sum() < 1e-10
        assert np.abs(Q.data.sum(axis=0) - P2.p[0]).sum() < 1e-10

    def test_middle_mismatch_rejected(self, rng):
        U = outer([np.array([0.5, 0.5]), np.array([0.5, 0.5])])
        V = outer([np.array([0.3, 0.7]), np.array([0.5, 0.5])])
        with pytest.raises(ValueError):
            glue(U, V)

    def test_zero_middle_mass_is_dropped(self):
        # 0/0 = 0: a middle state with no mass contributes nothing
        U = Tensor(np.array([[0.5, 0.0], [0.5, 0.0]]))
        V = Tensor(np.array([[0.6, 0.4], [0.0, 0.0]]))
        W = glue(U, V)
        assert np.all(np.isfinite(W.data))
        assert W.data[:, 1, :].sum() == 0.0


class TestSetDistance:
    def test_identity_permutation_on_equal_lists(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="matching")
        left = random_marginals(rng, 2, 3).p
        res = set_distance(C, left, left)
        assert res.distance <= 1e-9
        assert res.multisets_equal

    def test_swapped_lists_have_zero_distance(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="matching")
        p = random_marginals(rng, 2, 3).p
        swapped = p[::-1]
        res = set_distance(C, p, swapped)
        assert res.distance <= 1e-9
        assert res.multisets_equal

    def test_min_over_permutations(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="sum")
        left = random_marginals(rng, 2, 3).p
        right = random_marginals(rng, 2, 3).p
        res = set_distance(C, left, right)
        for perm in itertools.permutations(range(2)):
            order = list(perm)
            assert res.distance <= pair_distance(C, left[order], right[order]) + 1e-12

    def test_one_solve_in_list_order(self, rng, monkeypatch):
        calls = []
        solve = setdist.pair_distance

        def spy(C, left, right, **kwargs):
            calls.append((left, right))
            return solve(C, left, right, **kwargs)

        monkeypatch.setattr(setdist, "pair_distance", spy)
        for half in (2, 3):
            C = lift_ground_metric(ground_metric(3, rng), 2 * half, mode="sum")
            left = random_marginals(rng, half, 3).p
            right = random_marginals(rng, half, 3).p
            res = set_distance(C, left, right)
            assert len(calls) == 1
            assert np.array_equal(calls[0][0], left) and np.array_equal(calls[0][1], right)
            assert res.best_permutation == tuple(range(half))
            calls.clear()

    def test_listing_order_invariance_for_bisymmetric(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="matching")
        left = random_marginals(rng, 2, 3).p
        right = random_marginals(rng, 2, 3).p
        base = set_distance(C, left, right).distance
        shuffled = set_distance(C, left[::-1], right).distance
        assert base == pytest.approx(shuffled, abs=1e-8)

    def test_requires_weak_bisymmetry(self, rng):
        C = Tensor(rng.random((2, 2, 2, 2)))
        left = random_marginals(rng, 2, 2).p
        with pytest.raises(ContractViolation):
            set_distance(C, left, left)

    def test_profile_flags_are_reported(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="matching")
        res = set_distance(C, random_marginals(rng, 2, 3).p, random_marginals(rng, 2, 3).p)
        assert res.profile.bisymmetric
        assert res.profile.weak_bisymmetric
        # multiset-style costs vanish off the diagonal, so the plain
        # matricization is not a distance matrix
        assert not res.profile.distance_matrix


class TestMultisetDistanceCheck:
    def test_matching_lift_passes(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="matching")
        assert check_multiset_distance(C).ok

    def test_sum_lift_fails_on_equal_multisets(self, rng):
        # paired-sum costs stay positive on permuted tuples
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="sum")
        check = check_multiset_distance(C)
        assert not check.ok and "multisets" in check.violation

    def test_order_two_agrees_with_strict_check(self, rng):
        delta = ground_metric(3, rng)
        C = lift_ground_metric(delta, 2, mode="matching")
        assert check_multiset_distance(C).ok == check_distance_matrix(delta).ok

    @pytest.mark.parametrize("n, half", [(3, 1), (5, 2), (4, 3)])
    def test_mask_matches_sorted_tuples(self, n, half):
        tuples = [np.unravel_index(i, (n,) * half) for i in range(n**half)]
        expected = np.array([[sorted(a) == sorted(b) for b in tuples] for a in tuples])
        assert np.array_equal(_same_multiset(n, half), expected)

    @pytest.mark.parametrize("mode, order, violation", [
        ("sum", 4, "nonzero cost on equal multisets at (5, 7)"),
        ("sum", 6, "nonzero cost on equal multisets at (5, 15)"),
        ("matching", 4, None),
        ("matching", 6, None),
    ])
    def test_lift_verdicts(self, rng, mode, order, violation):
        check = check_multiset_distance(lift_ground_metric(ground_metric(3, rng), order, mode=mode))
        assert (check.ok, check.violation) == (violation is None, violation)

    def test_zero_on_distinct_multisets(self):
        D = matricize(lift_ground_metric(ground_metric(3), 4, mode="matching")).copy()
        D[0, 1] = D[1, 0] = 0.0
        check = check_multiset_distance(Tensor(D.reshape((3,) * 4)))
        assert check.violation == "nonpositive cost on distinct multisets at (0, 1)"


class TestCostProfile:
    def test_flags_come_from_validators(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="sum")
        profile = cost_profile(C)
        assert profile.weak_bisymmetric and not profile.bisymmetric
        assert profile.distance_matrix
        assert not profile.multiset_distance
        assert profile.violation is None

    def test_matching_profile(self, rng):
        C = lift_ground_metric(ground_metric(3, rng), 4, mode="matching")
        profile = cost_profile(C)
        assert profile.bisymmetric
        assert profile.multiset_distance
        assert not profile.distance_matrix
