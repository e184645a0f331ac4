"""Greedy scaling: residuals, mode selection, stopping, traces, subspaces."""

import math
import tracemalloc

import numpy as np
import pytest

from tensorot import (
    ContractViolation,
    MarginalFamily,
    NonConvergenceError,
    SinkhornConfig,
    Tensor,
    apply_scaling,
    g_value,
    iteration_bound,
    kl_divergence,
    l1_norm,
    log_marginal_fit,
    marginal,
    ones_tensor,
    outer,
    residual,
    select_mode,
    sinkhorn_scale,
    support_subspaces,
)
from tensorot.scaling import _svd_bases

from conftest import max_marginal_gap, random_marginals, random_positive_tensor


def uniform_family(d, n):
    return MarginalFamily(np.full((d, n), 1.0 / n))


class TestLogMarginalFit:
    def test_zero_when_fitted(self, rng):
        A = random_positive_tensor(rng, 3, 2)
        out = log_marginal_fit(A, marginal(A, 1), 1)
        assert np.abs(out).max() < 1e-14

    def test_hand_example(self):
        A = ones_tensor(2, 2)
        out = log_marginal_fit(A, np.array([0.6, 0.4]), 0)
        assert np.allclose(out, [math.log(0.3), math.log(0.2)], atol=1e-15)

    def test_definitional_inverse(self, rng):
        A = random_positive_tensor(rng, 3, 3)
        p = 0.1 + rng.random(3)
        out = log_marginal_fit(A, p, 1)
        assert np.allclose(np.exp(out) * marginal(A, 1), p, rtol=1e-14)


class TestResidual:
    def test_feasible_point(self, rng):
        P = random_marginals(rng, 3, 3)
        A = outer(P.p)
        for j in range(3):
            _, norm = residual(A, P.p[j], j)
            assert norm < 1e-12

    def test_hand_example(self):
        A = Tensor([[1.0, 0.0], [0.0, 0.0]])
        vec, norm = residual(A, np.array([0.5, 0.5]), 0)
        assert np.allclose(vec, [0.5, -0.5], atol=1e-15)
        assert norm == pytest.approx(1.0, abs=1e-15)

    def test_scaling_linearity(self, rng):
        A = random_positive_tensor(rng, 2, 3)
        p = np.full(3, 1 / 3)
        _, base = residual(A, p, 0)
        _, scaled = residual(Tensor(2.5 * A.data), p, 0)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)


class TestSelectMode:
    def test_all_zero_ties_to_first(self, rng):
        P = random_marginals(rng, 3, 3)
        assert select_mode(outer(P.p), P) == 0

    def test_prefers_larger_residual(self):
        # mode-0 marginal is off target, mode 1 matches
        A = Tensor([[0.5, 0.1], [0.1, 0.3]])
        P = MarginalFamily([[0.5, 0.5], [0.6, 0.4]])
        assert select_mode(A, P) == 0

    def test_symmetric_tie(self):
        A = ones_tensor(2, 2)
        assert select_mode(A, uniform_family(2, 2)) == 0


class TestKlDivergence:
    def test_zero_on_equal(self, rng):
        p = rng.dirichlet(np.ones(4))
        assert kl_divergence(p, p) == 0.0

    def test_point_mass(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_infinite_sentinel(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_pinsker(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            if np.any(q == 0):
                continue
            gap = np.abs(p - q).sum()
            assert kl_divergence(p, q) >= gap**2 / 2 - 1e-12


class TestSinkhornPositive:
    def test_feasible_input_stops_immediately(self, rng):
        P = random_marginals(rng, 3, 3)
        A = outer(P.p)
        scaled, X, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.05))
        assert trace.k_stop == 0
        assert np.abs(X).max() == 0.0

    def test_symmetric_two_by_two(self):
        e = math.exp(-1.0)
        A = Tensor([[1.0, e], [e, 1.0]])
        scaled, X, trace = sinkhorn_scale(A, uniform_family(2, 2), SinkhornConfig(epsilon=0.01))
        assert trace.k_stop == 0
        assert np.allclose(scaled.data, A.data / (2 + 2 * e), atol=1e-15)

    def test_requires_probability_marginals(self, rng):
        A = random_positive_tensor(rng, 2, 2)
        P = MarginalFamily([[0.6, 0.6], [0.7, 0.5]])
        with pytest.raises(ContractViolation):
            sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.1))

    def test_rejects_zeros_in_positive_variant(self, rng):
        A = Tensor([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ContractViolation):
            sinkhorn_scale(A, uniform_family(2, 2), SinkhornConfig(epsilon=0.1))

    def test_iterates_are_probability_tensors(self, rng):
        A = random_positive_tensor(rng, 3, 3)
        P = random_marginals(rng, 3, 3)
        scaled, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.02))
        assert abs(l1_norm(scaled) - 1.0) < 1e-10
        assert all(abs(r.g_value - (1.0 - 0.0)) < 10.0 for r in trace.records)  # finite

    def test_stopping_certificate_and_bound(self, rng):
        for _ in range(5):
            A = random_positive_tensor(rng, 3, 3)
            P = random_marginals(rng, 3, 3)
            eps = 0.05
            scaled, X, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=eps))
            assert trace.residuals[-1] < eps
            assert max_marginal_gap(scaled, P) < 2 * eps
            assert trace.k_stop <= trace.bound
            assert trace.bound == pytest.approx(
                iteration_bound(3, eps, l1_norm(A), float(A.data.min())))

    def test_scaling_vector_consistency(self, rng):
        A = random_positive_tensor(rng, 3, 2)
        P = random_marginals(rng, 3, 2)
        scaled, X, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.01))
        A0 = Tensor(A.data / l1_norm(A))
        assert np.array_equal(apply_scaling(A0, X).data, scaled.data)

    def test_one_mode_exactness(self, rng):
        A = random_positive_tensor(rng, 3, 3)
        P = random_marginals(rng, 3, 3)
        _, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.001))
        # rebuild each iterate and check the rescaled mode is exact
        A0 = Tensor(A.data / l1_norm(A))
        X = np.zeros((3, 3))
        for rec in trace.records[:-1]:
            X[rec.mode] += log_marginal_fit(apply_scaling(A0, X), P.p[rec.mode], rec.mode)
            after = apply_scaling(A0, X)
            assert np.abs(marginal(after, rec.mode) - P.p[rec.mode]).sum() < 1e-10

    def test_telescoping_identity(self, rng):
        A = random_positive_tensor(rng, 3, 3)
        P = random_marginals(rng, 3, 3)
        _, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.002))
        g = trace.g_values
        kl = trace.kl_values
        assert trace.k_stop >= 2
        for k in range(1, trace.k_stop):
            assert g[k] - g[k + 1] == pytest.approx(kl[k], abs=1e-8)

    def test_g_matches_pm_module(self, rng):
        A = random_positive_tensor(rng, 2, 3)
        P = random_marginals(rng, 2, 3)
        _, X, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.01))
        A0 = Tensor(A.data / l1_norm(A))
        assert trace.records[-1].g_value == pytest.approx(g_value(A0, P, X), abs=1e-12)

    def test_g_values_nonincreasing(self, rng):
        A = random_positive_tensor(rng, 3, 3)
        P = random_marginals(rng, 3, 3)
        _, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.002))
        g = trace.g_values
        assert np.all(np.diff(g) <= 1e-12)

    def test_geometric_tail_per_sweep(self, rng):
        # residuals sampled every d steps eventually shrink by a stable factor
        A = random_positive_tensor(rng, 3, 3)
        P = random_marginals(rng, 3, 3)
        _, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=1e-6))
        res = trace.residuals[:-1]
        sweeps = res[:: A.d]
        if len(sweeps) >= 4:
            ratios = sweeps[1:] / sweeps[:-1]
            assert np.median(ratios[-3:]) < 0.95

    def test_max_iter_exhaustion_carries_trace(self, rng):
        A = random_positive_tensor(rng, 2, 3)
        P = random_marginals(rng, 2, 3)
        with pytest.raises(NonConvergenceError) as err:
            sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.001, max_iter=1))
        assert err.value.trace is not None
        assert len(err.value.trace.records) >= 1

    def test_two_mode_runs_alternate_after_first(self, rng):
        for _ in range(5):
            A = random_positive_tensor(rng, 2, 3)
            P = random_marginals(rng, 2, 3)
            _, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=1e-5))
            modes = [r.mode for r in trace.records[:-1]]
            for prev, cur in zip(modes[1:], modes[2:]):
                assert cur != prev

    def test_matches_classical_alternating_scaling(self, rng):
        # once the modes alternate, greedy == classical row/column scaling
        A = random_positive_tensor(rng, 2, 3)
        P = random_marginals(rng, 2, 3)
        scaled, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=1e-6))
        modes = [r.mode for r in trace.records[:-1]]
        current = Tensor(A.data / l1_norm(A))
        for mode in modes:
            s = marginal(current, mode)
            factor = P.p[mode] / s
            shape = tuple(3 if ax == mode else 1 for ax in range(2))
            current = Tensor(current.data * factor.reshape(shape))
        assert np.abs(current.data - scaled.data).max() < 1e-12

    def test_trace_jsonl_export(self, rng, tmp_path):
        import json

        A = random_positive_tensor(rng, 2, 2)
        P = random_marginals(rng, 2, 2)
        _, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.05))
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(trace.records) + 1
        assert set(lines[0]) == {"k", "mode", "residual_l1", "kl", "g_value"}
        assert set(lines[-1]) == {"k_stop", "bound", "eta", "mass"}
        assert lines[-1]["k_stop"] == trace.k_stop


class TestSupportSubspaces:
    def test_strictly_positive_has_no_degenerate_part(self, rng):
        A = random_positive_tensor(rng, 3, 3)
        P = random_marginals(rng, 3, 3)
        bases = support_subspaces(A, P)
        assert bases.dim_degenerate == 0
        assert bases.dim_complement == 3 * (3 - 1)

    def test_diagonal_pattern(self):
        A = Tensor([[1.0, 0.0], [0.0, 1.0]])
        P = uniform_family(2, 2)
        bases = support_subspaces(A, P)
        assert bases.dim_degenerate == 1
        # spanned by ((a, -a), (-a, a))
        v = bases.degenerate[:, 0]
        expect = np.array([1.0, -1.0, -1.0, 1.0]) / 2.0
        assert min(np.abs(v - expect).max(), np.abs(v + expect).max()) < 1e-10

    def test_dims_split_marginal_orth(self, rng):
        P = random_marginals(rng, 3, 3)
        pattern = (rng.random((3, 3, 3)) > 0.3).astype(float)
        pattern[0, 0, 0] = 1.0
        A = Tensor(pattern * (0.5 + rng.random((3, 3, 3))))
        if np.all([marginal(A, j).min() > 0 for j in range(3)]):
            bases = support_subspaces(A, P)
            total = bases.dim_degenerate + bases.dim_complement
            assert total == 3 * (3 - 1)

    def test_orthonormality(self, rng):
        A = random_positive_tensor(rng, 2, 4)
        P = random_marginals(rng, 2, 4)
        bases = support_subspaces(A, P)
        for Q in [bases.marginal_orth, bases.complement, *bases.mode_blocks]:
            if Q.shape[1]:
                gram = Q.T @ Q
                assert np.abs(gram - np.eye(Q.shape[1])).max() < 1e-10

    def test_mode_blocks_have_full_dimension(self, rng):
        P = random_marginals(rng, 2, 3)
        A = Tensor([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        bases = support_subspaces(A, P)
        for Q in bases.mode_blocks:
            assert Q.shape[1] == 2

    def test_order_one_collapses(self):
        A = Tensor([1.0, 0.0, 2.0])
        P = MarginalFamily([[0.3, 0.4, 0.3]])
        bases = support_subspaces(A, P)
        # directions vanish on the support and stay orthogonal to p
        for col in bases.degenerate.T:
            assert abs(col[0]) < 1e-12 and abs(col[2]) < 1e-12

    def test_memory_stays_linear_in_cells(self):
        # 4096 support cells: a (cells x cells) SVD factor alone is 128 MiB
        A = ones_tensor(3, 16)
        P = uniform_family(3, 16)
        tracemalloc.start()
        try:
            support_subspaces(A, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSvdBases:
    @pytest.mark.parametrize("rows, cols, rank", [
        (4, 9, 3), (9, 4, 3), (40, 12, 7), (5, 5, 2), (1, 6, 1), (6, 1, 0)])
    def test_projectors_match_scipy(self, rng, rows, cols, rank):
        from scipy.linalg import null_space, orth

        M = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        col_basis, null_basis = _svd_bases(M)
        for ours, ref in ((col_basis, orth(M, rcond=1e-10)),
                          (null_basis, null_space(M, rcond=1e-10))):
            assert ours.shape == ref.shape
            assert np.abs(ours @ ours.T - ref @ ref.T).max() < 1e-10


class TestSinkhornSupportVariant:
    def _supported_instance(self, rng, d, n):
        from tensorot import solve_exact_tot
        from conftest import random_cost

        P = random_marginals(rng, d, n)
        sol = solve_exact_tot(random_cost(rng, d, n), P)
        pattern = sol.plan.data > 1e-9
        A = Tensor(np.where(pattern, 0.5 + rng.random(pattern.shape), 0.0))
        return A, P

    def test_reaches_marginal_guarantee(self, rng):
        A, P = self._supported_instance(rng, 3, 3)
        eps = 0.1
        cfg = SinkhornConfig(epsilon=eps, variant="support")
        scaled, X, trace = sinkhorn_scale(A, P, cfg)
        assert max_marginal_gap(scaled, P) < 2 * eps
        assert trace.k_stop <= trace.bound

    def test_zero_pattern_preserved(self, rng):
        A, P = self._supported_instance(rng, 2, 4)
        cfg = SinkhornConfig(epsilon=0.05, variant="support")
        scaled, _, _ = sinkhorn_scale(A, P, cfg)
        assert np.array_equal(scaled.data == 0, A.data == 0)

    def test_positive_tensor_matches_positive_variant(self, rng):
        # with full support both variants see the same residuals
        A = random_positive_tensor(rng, 2, 3)
        P = random_marginals(rng, 2, 3)
        _, _, tr_pos = sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.01))
        _, _, tr_sup = sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.01, variant="support"))
        assert tr_pos.k_stop == tr_sup.k_stop
        assert [r.mode for r in tr_pos.records] == [r.mode for r in tr_sup.records]
        assert np.allclose(tr_pos.residuals, tr_sup.residuals, rtol=1e-8)


class TestConfig:
    def test_epsilon_range(self):
        with pytest.raises(ContractViolation):
            SinkhornConfig(epsilon=0.5)
        with pytest.raises(ContractViolation):
            SinkhornConfig(epsilon=0.0)

    def test_variant_name(self):
        with pytest.raises(ValueError):
            SinkhornConfig(epsilon=0.1, variant="negative")
