"""Greedy scaling: residuals, mode selection, stopping, traces, subspaces."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from tensorot import (
    ContractViolation,
    IterationRecord,
    MarginalFamily,
    NonConvergenceError,
    SinkhornConfig,
    Tensor,
    all_marginals,
    apply_scaling,
    exp_neg_scaled,
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
from tensorot import scaling
from tensorot.scaling import _svd_bases

from conftest import max_marginal_gap, random_cost, random_marginals, random_positive_tensor


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
        assert list(lines[0]) == ["k", "mode", "residual_l1", "kl", "g_value"]
        # a record is exactly one line: its fields are the line's keys, in order
        assert [f.name for f in dataclasses.fields(IterationRecord)] == list(lines[0])
        assert [dataclasses.asdict(r) for r in trace.records] == lines[:-1]
        assert set(lines[-1]) == {"k_stop", "bound", "eta", "mass"}
        assert lines[-1]["k_stop"] == trace.k_stop


def _with_zeros(rng, d, n, share=0.15):
    """Random tensor with about ``share`` of its cells set to 0, and the
    marginals of another tensor on the same support, so it is scalable."""
    zeros = rng.random((n,) * d) < share
    A, B = (np.where(zeros, 0.0, 0.1 + rng.random(zeros.shape)) for _ in range(2))
    return Tensor(A), MarginalFamily(all_marginals(Tensor(B / B.sum())))


def _reference_scale(A, P, epsilon):
    """The greedy loop rebuilt from the exponents on every step, with
    per-mode residuals: the step sequence sinkhorn_scale must follow."""
    A0 = Tensor(A.data / l1_norm(A))
    X = np.zeros((P.d, P.n))
    modes, residuals = [], []
    while True:
        current = apply_scaling(A0, X)
        norms = [residual(current, P.p[j], j)[1] for j in range(P.d)]
        residuals.append(max(norms))
        if residuals[-1] < epsilon:
            return current, X, modes, residuals
        mode = int(np.argmax(norms))
        modes.append(mode)
        X[mode] += log_marginal_fit(current, P.p[mode], mode)


class TestIncrementalStep:
    """Steps rescale one mode in place; the iterate is rebuilt from the
    exponents only at a stopping check or after a long run of steps."""

    def _long_solve(self, rng):
        C = random_cost(rng, 3, 4)
        P = random_marginals(rng, 3, 4)
        return exp_neg_scaled(C, 30.0), P, SinkhornConfig(epsilon=1e-4)

    def test_scaled_runs_only_for_counted_rebuilds(self, rng, monkeypatch):
        calls = []
        real = scaling._scaled

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(scaling, "_scaled", spy)
        _, _, trace = sinkhorn_scale(*self._long_solve(rng))
        assert trace.k_stop > 50
        assert 1 <= len(calls) <= trace.rematerializations

    def test_drift_is_tiny(self, rng):
        _, _, trace = sinkhorn_scale(*self._long_solve(rng))
        assert trace.rematerializations >= 1
        assert 0.0 <= trace.drift < 1e-12

    @pytest.mark.parametrize("seed", [2, 5])
    def test_long_solve_keeps_drift_and_mass_small(self, seed):
        # about 1,000-1,600 steps with exponents above 100 in magnitude
        rng = np.random.default_rng([11, seed])
        A = exp_neg_scaled(random_cost(rng, 2, 3), 400.0)
        P = random_marginals(rng, 2, 3)
        scaled, X, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=3e-4))
        assert trace.k_stop > 900 and np.abs(X).max() > 100
        assert trace.rematerializations >= 1 + trace.k_stop // scaling._REBUILD_STEPS
        assert trace.drift < 1e-13
        assert abs(l1_norm(scaled) - 1.0) < 1e-13

    def test_immediate_stop_rebuilds_nothing(self, rng):
        P = random_marginals(rng, 3, 3)
        scaled, X, trace = sinkhorn_scale(outer(P.p), P, SinkhornConfig(epsilon=0.05))
        assert trace.k_stop == 0
        assert trace.rematerializations == 0 and trace.drift == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("variant", ["positive", "support"])
    def test_iterate_equals_applied_exponents(self, rng, d, variant):
        n = 3
        if variant == "support":
            A, P = _with_zeros(rng, d, n)
            assert np.any(A.data == 0)
        else:
            A, P = random_positive_tensor(rng, d, n), random_marginals(rng, d, n)
        scaled, X, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=1e-3, variant=variant))
        assert trace.k_stop > 0
        A0 = Tensor(A.data / l1_norm(A))
        assert np.array_equal(apply_scaling(A0, X).data, scaled.data)

    def test_matches_rebuild_every_step(self):
        for seed in range(20):
            rng = np.random.default_rng([7, seed])
            d = 3 + seed % 3
            n = 3 + seed % 2
            A = exp_neg_scaled(random_cost(rng, d, n), 10.0)
            P = random_marginals(rng, d, n)
            scaled, X, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=1e-4))
            ref, ref_X, modes, residuals = _reference_scale(A, P, 1e-4)
            assert trace.k_stop == len(modes)
            assert trace.modes == modes + [None]
            assert np.allclose(trace.residuals, residuals, rtol=1e-10, atol=0.0)
            assert np.allclose(X, ref_X, rtol=1e-12, atol=1e-14)
            assert np.allclose(scaled.data, ref.data, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("variant", ["positive", "support"])
    def test_kl_is_the_divergence_of_the_applied_step(self, rng, monkeypatch, variant):
        # replay the run: each step's kl against the marginals the loop took last
        if variant == "support":
            A, P = _with_zeros(rng, 3, 4)
        else:
            A, P, _ = self._long_solve(rng)
        events = []
        real_marginals, real_record = scaling._marginals, scaling.IterationRecord

        def spy_marginals(data):
            S = real_marginals(data)
            events.append(S.copy())
            return S

        def spy_record(**fields):
            events.append(fields)
            return real_record(**fields)

        monkeypatch.setattr(scaling, "_marginals", spy_marginals)
        monkeypatch.setattr(scaling, "IterationRecord", spy_record)
        _, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=1e-6, variant=variant))
        steps = 0
        for event in events:
            if isinstance(event, np.ndarray):
                S = event
            elif event["mode"] is not None:
                assert event["kl"] == kl_divergence(P.p[event["mode"]], S[event["mode"]])
                steps += 1
        assert steps == trace.k_stop > 10
        assert trace.rematerializations >= 1

    def test_failed_recheck_keeps_stepping(self, rng, monkeypatch):
        # the first rebuild is spoiled, so its recheck fails and the run goes on
        A, P, cfg = self._long_solve(rng)
        real = scaling._scaled
        calls = []

        def spoiled_once(data, X, zeros=None):
            out = real(data, X, zeros)
            calls.append(1)
            if len(calls) == 1:
                out[0] *= 3.0
                out /= out.sum()
            return out

        monkeypatch.setattr(scaling, "_scaled", spoiled_once)
        scaled, X, trace = sinkhorn_scale(A, P, cfg)
        assert trace.rematerializations == len(calls) >= 2
        assert [r.k for r in trace.records] == list(range(trace.k_stop + 1))
        assert trace.modes.count(None) == 1 and trace.modes[-1] is None
        assert trace.residuals[-1] < cfg.epsilon
        assert trace.drift > 0.1  # the spoiled rebuild moved the marginals


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
