"""Greedy scaling: residuals, mode selection, stopping, traces, subspaces."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from tensorot import (
    ContractViolation,
    DegenerateSliceError,
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
from tensorot.tensor import _fsum, _marginals, _scaled

from conftest import (max_marginal_gap, overflowing_kernel, random_cost, random_marginals,
                      random_positive_tensor, traced_peak)


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

    def test_a_tensor_with_zeros_is_measured_on_its_support(self):
        # the zeros alone make select_mode leave the degenerate directions out
        differs = 0
        for kind, A, P in _support_patterns():
            p_sq = (P.p * P.p).sum(axis=1)
            with_bases, without = (scaling._residual_norms(all_marginals(A), P, b, p_sq)
                                   for b in (support_subspaces(A, P), None))
            assert select_mode(A, P) == int(np.argmax(with_bases)), kind
            differs += int(np.argmax(with_bases)) != int(np.argmax(without))
        assert differs >= 10


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

    def test_scales_a_tensor_with_zeros(self):
        # the zero selects the support-aware path: eta is the smallest
        # positive entry and the zero stays exactly zero
        A = Tensor([[1.0, 0.0], [1.0, 1.0]])
        P = uniform_family(2, 2)
        scaled, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.1))
        assert trace.stop == "residual" and trace.eta == 1.0
        assert scaled.data[0, 1] == 0.0
        assert max_marginal_gap(scaled, P) < 0.2

    def test_rejects_negative_input(self):
        A = Tensor([[1.0, -0.5], [1.0, 1.0]])
        with pytest.raises(ContractViolation, match="nonnegative"):
            sinkhorn_scale(A, uniform_family(2, 2), SinkhornConfig(epsilon=0.1))

    def test_rejects_nan_input(self, rng):
        data = random_positive_tensor(rng, 2, 3).data.copy()
        data[1, 2] = math.nan
        with pytest.raises(ContractViolation):
            sinkhorn_scale(Tensor(data), uniform_family(2, 3), SinkhornConfig(epsilon=0.1))

    @pytest.mark.parametrize("variant", ["positive", "support"])
    def test_rejects_an_overflowing_mass(self, variant):
        data = np.full((3, 3), 1e308)
        if variant == "support":
            data[0, 1] = 0.0
        with pytest.raises(ContractViolation, match="overflows"):
            sinkhorn_scale(Tensor(data), uniform_family(2, 3), SinkhornConfig(epsilon=0.1))

    def test_bound_with_a_subnormal_eta(self):
        # mass/eta overflows, its logarithm does not
        bound = iteration_bound(12, 0.1, 1.0, 5e-324)
        assert bound == pytest.approx(2 * (math.sqrt(12) + 1) ** 2 / 0.01 * 744.44, rel=1e-4)
        assert iteration_bound(3, 0.1, 2.5, 0.125) == (
            2.0 * (math.sqrt(3) + 1.0) ** 2 / 0.1**2 * math.log(2.5 / 0.125))

    @pytest.mark.parametrize("epsilon", [1e-200, 1.5e-162, 1e-160])
    def test_bound_refuses_an_epsilon_past_the_float_range(self, epsilon):
        # epsilon**2 underflows to 0, or the quotient overflows to inf
        with pytest.raises(ContractViolation, match="too small"):
            iteration_bound(3, epsilon, 1.0, 0.05)
        with pytest.raises(ContractViolation, match="too small"):
            sinkhorn_scale(Tensor(np.full((3, 3), 0.5)), uniform_family(2, 3),
                           SinkhornConfig(epsilon=epsilon))

    def test_bound_keeps_its_bits_near_the_float_limit(self):
        for epsilon in (5e-154, 1e-150, 1e-8):
            assert iteration_bound(3, epsilon, 1.0, 0.05) == (
                2.0 * (math.sqrt(3) + 1.0) ** 2 / epsilon**2 * math.log(1.0 / 0.05))
        # 0 * inf has no value either
        with pytest.raises(ContractViolation):
            iteration_bound(1, 1e-160, 1.0, 1.0)
        # a finite bound, but an epsilon below the floor the residual can reach
        with pytest.raises(ContractViolation, match="too small"):
            sinkhorn_scale(Tensor(np.full((3, 3), 0.5)), uniform_family(2, 3),
                           SinkhornConfig(epsilon=5e-154))

    def test_prologue_takes_the_marginals_once(self, rng, monkeypatch):
        # a feasible input stops at k=0: its only marginals are the first S
        P = random_marginals(rng, 3, 3)
        real, calls = scaling._marginals, []

        def counted(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(scaling, "_marginals", counted)
        _, _, trace = sinkhorn_scale(outer(P.p), P, SinkhornConfig(epsilon=0.05))
        assert trace.k_stop == 0 and len(calls) == 1

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


class TestCertifyHook:
    """A caller's ``certify`` sees the rebuilt iterate at steps 8, 16, 32, ...
    and ends the run there when it returns true."""

    def _run(self, rng, monkeypatch, answer):
        A, P, cfg = TestIncrementalStep()._long_solve(rng)
        steps, calls = [], []
        real_record = scaling.IterationRecord

        def spy_record(**fields):
            steps.append(fields["k"])
            return real_record(**fields)

        def certify(iterate, X):
            calls.append((len(steps), iterate.data.copy(), X.copy()))
            return answer(len(calls))

        monkeypatch.setattr(scaling, "IterationRecord", spy_record)
        return A, cfg, sinkhorn_scale(A, P, cfg, certify=certify), calls

    def test_called_at_doubling_steps_on_the_rebuild(self, rng, monkeypatch):
        A, cfg, (scaled, X, trace), calls = self._run(rng, monkeypatch, lambda i: False)
        assert trace.stop == "residual"
        checks = [8 * 2**i for i in range(20) if 8 * 2**i < trace.k_stop]
        assert len(checks) >= 3
        assert [k for k, _, _ in calls] == checks
        data0 = A.data / _fsum(A.data)
        for _, iterate, X_k in calls:
            assert np.array_equal(iterate, _scaled(data0, X_k))
        assert trace.rematerializations >= len(calls)

    def test_g_value_at_a_check_sums_the_whole_exponent_table(self, rng):
        # the run keeps P.p * X row by row; at a check its record must show
        # the potential formed from the rebuilt iterate and all of X
        A, P, cfg = TestIncrementalStep()._long_solve(rng)
        calls = []
        _, _, trace = sinkhorn_scale(A, P, cfg,
                                     certify=lambda it, X: calls.append((it.data.copy(), X)))
        assert len(calls) >= 3
        for k, (iterate, X) in zip((8, 16, 32, 64), calls):
            g = float(_marginals(iterate)[0].sum()) - float(np.sum(P.p * X))
            assert trace.records[k].g_value == g

    def test_true_ends_the_run_there(self, rng, monkeypatch):
        A, cfg, (scaled, X, trace), calls = self._run(rng, monkeypatch, lambda i: i == 2)
        assert trace.stop == "certified" and trace.k_stop == 16
        assert [r.k for r in trace.records] == list(range(trace.k_stop + 1))
        assert trace.modes.count(None) == 1 and trace.records[-1].mode is None
        assert trace.residuals[-1] >= cfg.epsilon  # the stopping test had not passed
        assert np.array_equal(scaled.data, calls[-1][1])
        assert np.array_equal(X, calls[-1][2])

    def test_stop_reason_without_a_hook(self, rng):
        A, P, cfg = TestIncrementalStep()._long_solve(rng)
        assert sinkhorn_scale(A, P, cfg)[2].stop == "residual"
        with pytest.raises(NonConvergenceError) as err:
            sinkhorn_scale(A, P, SinkhornConfig(epsilon=1e-4, max_iter=5))
        assert err.value.trace.stop is None


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

    def test_rebuilds_hold_one_iterate_sized_array(self, rng):
        # the run keeps the caller's input and one iterate, never the
        # normalized input whole: a rebuild frees the old iterate, then
        # builds the new one in place from the input divided by blocks
        A = exp_neg_scaled(random_cost(rng, 4, 24), 50.0)
        P = random_marginals(rng, 4, 24)
        (_, _, trace), peak = traced_peak(sinkhorn_scale, A, P, SinkhornConfig(epsilon=1e-4))
        assert trace.rematerializations >= 1
        assert peak <= 1.25 * A.data.nbytes

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
            assert A.data.all()
        scaled, X, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=1e-3))
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
        _, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=1e-6))
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

        def spoiled_once(*args):
            out = real(*args)
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


def _replay_step_records(A, P, cfg, monkeypatch, certify=None):
    """Run sinkhorn_scale and check every record, bit for bit, against the
    plain numpy expressions of a step, evaluated on the marginals the run
    took last; returns the trace."""
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
    _, X_run, trace = sinkhorn_scale(A, P, cfg, certify=certify)
    monkeypatch.undo()

    p = P.p
    p_sq = (p * p).sum(axis=1)
    X = np.zeros((P.d, P.n))
    for event in events:
        if isinstance(event, np.ndarray):
            S = event
            continue
        norms = np.abs(S - ((S * p).sum(axis=1) / p_sq)[:, None] * p).sum(axis=1)
        assert event["residual_l1"] == float(norms.max())
        assert event["g_value"] == float(S[0].sum()) - float((p * X).sum())
        if event["mode"] is None:
            continue
        mode = int(np.argmax(norms))
        assert event["mode"] == mode
        step = np.log(p[mode]) - np.log(S[mode])
        assert event["kl"] == _fsum(p[mode] * step)
        X[mode] = X[mode] + step
    assert X.tobytes() == X_run.tobytes()
    return trace


class TestStepBits:
    """A step's residual norms, mode, kl and potential are the plain numpy
    expressions of the greedy step, bit for bit: n = 8 and 12 reach numpy's
    unrolled pairwise loop, which a reduction in another order would not
    match."""

    @pytest.mark.parametrize("n", [3, 8, 12])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("variant", ["positive", "support"])
    def test_records_match_plain_expressions(self, rng, monkeypatch, variant, d, n):
        if variant == "support":
            A, P = _with_zeros(rng, d, n)
            assert np.any(A.data == 0)
            # no degenerate part, so the plain residual is the measured one
            assert support_subspaces(A, P).dim_degenerate == 0
        else:
            A = exp_neg_scaled(random_cost(rng, d, n), 8.0)
            P = random_marginals(rng, d, n)
        trace = _replay_step_records(A, P, SinkhornConfig(epsilon=1e-4), monkeypatch)
        assert trace.stop == "residual" and trace.k_stop >= 5

    def test_records_of_a_certified_run(self, rng, monkeypatch):
        A = exp_neg_scaled(random_cost(rng, 3, 8), 30.0)
        P = random_marginals(rng, 3, 8)
        calls = []

        def certify(iterate, X):
            calls.append(1)
            return len(calls) == 3

        trace = _replay_step_records(A, P, SinkhornConfig(epsilon=1e-6), monkeypatch,
                                     certify=certify)
        assert trace.stop == "certified" and trace.k_stop == 32


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
        for Q in [bases.marginal_orth, bases.complement]:
            if Q.shape[1]:
                gram = Q.T @ Q
                assert np.abs(gram - np.eye(Q.shape[1])).max() < 1e-10

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

    def test_memory_stays_near_the_input(self):
        # d=4, n=24, 30% zeros: no temporary with a row per support cell
        rng = np.random.default_rng(424)
        data = rng.random((24,) * 4) * (rng.random((24,) * 4) > 0.3)
        A, P = Tensor(data), random_marginals(rng, 4, 24)
        tracemalloc.start()
        try:
            support_subspaces(A, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * A.data.nbytes


def _reference_subspaces(A, P):
    """Degenerate part, complement and mode blocks from the constraint
    matrix: an SVD of one row per support cell plus one row <p_j, y_j> = 0
    per mode, then an SVD of ``marginal_orth`` projected off its null space."""
    d, n = A.d, A.n
    blocks = scaling.mode_orthogonal_blocks(P)
    marginal_orth = np.hstack(blocks)
    support = np.argwhere(A.data > 0)
    cells = support.shape[0]
    constraints = np.zeros((cells + d, d * n))
    for j in range(d):
        constraints[np.arange(cells), j * n + support[:, j]] = 1.0
        constraints[cells + j, j * n:(j + 1) * n] = P.p[j]
    degenerate = _svd_bases(constraints)[1]
    complement = _svd_bases(marginal_orth - degenerate @ (degenerate.T @ marginal_orth))[0]
    mode_blocks = [_svd_bases(complement @ (complement.T @ emb))[0] for emb in blocks]
    return degenerate, complement, mode_blocks


def _northwest_support(P):
    """Cells of the north-west-corner vertex of the transport polytope of P."""
    left = P.p.copy()
    idx = [0] * P.d
    cells = []
    while True:
        cells.append(tuple(idx))
        rows = left[np.arange(P.d), idx]
        take = rows.min()
        left[np.arange(P.d), idx] -= take
        moved = False
        for j in range(P.d):
            if rows[j] - take <= 1e-15 and idx[j] < P.n - 1:
                idx[j] += 1
                moved = True
        if not moved:
            return cells


def _support_patterns():
    """Seeded (kind, A, P): random zero patterns, block patterns (a cell is
    kept when every index falls in one group), and north-west-corner vertex
    supports, alone, with the diagonal cells added, or with one or two cells
    left out.  Leaving out one cell keeps the degenerate part empty but can
    bring the smallest kept eigenvalue near the cut; leaving out two makes
    it nonempty."""
    rng = np.random.default_rng(1207)
    out = []
    for pick in range(420):
        d, n = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        P = random_marginals(rng, d, n)
        kind = ("random", "block", "vertex", "vertex+diagonal", "vertex-1", "vertex-2")[pick % 6]
        if kind == "random":
            mask = rng.random((n,) * d) < rng.uniform(0.2, 0.9)
        elif kind == "block":
            groups = rng.integers(0, int(rng.integers(2, 4)), size=(d, n))
            mask = np.zeros((n,) * d, dtype=bool)
            for g in range(groups.max() + 1):
                mask[np.ix_(*(groups == g))] = True
        else:
            cells = _northwest_support(P)
            for _ in range({"vertex-1": 1, "vertex-2": 2}.get(kind, 0)):
                del cells[int(rng.integers(len(cells)))]
            mask = np.zeros((n,) * d, dtype=bool)
            for cell in cells:
                mask[cell] = True
            if kind == "vertex+diagonal":
                for i in range(n):
                    mask[(i,) * d] = True
        if not mask.any():
            mask[(0,) * d] = True
        out.append((kind, Tensor(mask * (0.5 + rng.random(mask.shape))), P))
    return out


def _projector(Q):
    return Q @ Q.T


class TestSupportGram:
    def test_matches_the_constraint_matrix_svd(self):
        with_degenerate = 0
        patterns = _support_patterns()
        for kind, A, P in patterns:
            bases = support_subspaces(A, P)
            degenerate, complement, _ = _reference_subspaces(A, P)
            with_degenerate += degenerate.shape[1] > 0
            for ours, ref in [(bases.degenerate, degenerate), (bases.complement, complement)]:
                assert ours.shape == ref.shape, kind
                assert np.abs(_projector(ours) - _projector(ref)).max() < 1e-10, kind
        assert len(patterns) >= 300 and with_degenerate >= 100

    def test_residual_norms_match_the_mode_blocks(self):
        # the support residual of mode j is defined as the projection of
        # e_j(s_j) onto the range Q_j of mode j's block projected into the
        # complement; the reference builds Q_j with an SVD
        for kind, A, P in _support_patterns():
            S = all_marginals(A)
            *_, mode_blocks = _reference_subspaces(A, P)
            ref = np.array([np.abs(Q @ (Q[j * A.n:(j + 1) * A.n].T @ S[j])).sum()
                            for j, Q in enumerate(mode_blocks)])
            ours = scaling._residual_norms(S, P, support_subspaces(A, P), (P.p * P.p).sum(axis=1))
            assert np.abs(ours - ref).max() <= 1e-10 * ref.max(), kind

    def test_eigenvalues_clear_the_cut(self, monkeypatch):
        # null eigenvalues sit at rounding level and kept ones far above, so
        # any cut between 1e-12 and 1e-7 splits the same way; the smallest
        # kept ones (about 5e-7) come from vertex supports less one cell
        assert 1e-12 < scaling._EIG_CUT < 1e-7
        real, seen = np.linalg.eigh, []

        def spy(a):
            w, v = real(a)
            seen.append(w)
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", spy)
        for _, A, P in _support_patterns():
            bases = support_subspaces(A, P)
            w = seen.pop()
            rel = w / w.max()
            assert np.all((rel < 1e-12) | (rel > 1e-7))
            assert np.count_nonzero(rel < 1e-12) == bases.dim_degenerate

    def test_one_eigendecomposition_and_no_row_per_cell(self, monkeypatch):
        A = Tensor(np.random.default_rng(5).random((6,) * 4))  # 1296 cells, dn = 24
        P = uniform_family(4, 6)
        real_eigh, real_svd, eighs, svd_rows = np.linalg.eigh, np.linalg.svd, [], []

        def eigh(a):
            eighs.append(a.shape)
            return real_eigh(a)

        def svd(a, *args, **kwargs):
            svd_rows.append(a.shape[0])
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(np.linalg, "svd", svd)
        support_subspaces(A, P)
        assert eighs == [(4 * 5, 4 * 5)]
        assert max(svd_rows) <= 4 * 6
        assert len(svd_rows) == 4  # mode_orthogonal_blocks only


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
        cfg = SinkhornConfig(epsilon=eps)
        scaled, X, trace = sinkhorn_scale(A, P, cfg)
        assert max_marginal_gap(scaled, P) < 2 * eps
        assert trace.k_stop <= trace.bound

    def test_zero_pattern_preserved(self, rng):
        A, P = self._supported_instance(rng, 2, 4)
        cfg = SinkhornConfig(epsilon=0.05)
        scaled, _, _ = sinkhorn_scale(A, P, cfg)
        assert np.array_equal(scaled.data == 0, A.data == 0)

    def test_zero_slice_is_refused(self):
        A = Tensor([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DegenerateSliceError, match="mode 0"):
            sinkhorn_scale(A, uniform_family(2, 2), SinkhornConfig(epsilon=0.1))

    def test_marginals_that_overflow_end_the_run(self):
        # without the check the residuals turn NaN (a RuntimeWarning, which
        # fails here) and the run heads for a cap of hundreds of millions
        A, P = overflowing_kernel()
        assert int(np.count_nonzero(A.data == 0)) == 196
        with pytest.raises(NonConvergenceError, match="not finite") as info:
            sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.01))
        trace = info.value.trace
        assert trace.records and trace.k_stop is None
        assert len(trace.records) < 10_000 < trace.bound

    def test_positive_tensor_matches_positive_variant(self, monkeypatch):
        # a full support has no degenerate part, so its bases measure every
        # marginal of a run exactly as the positive path does without them
        seen, real = [], scaling._marginals

        def spy(a):
            seen.append(real(a))
            return seen[-1]

        monkeypatch.setattr(scaling, "_marginals", spy)
        for seed in range(4):
            for d in (2, 3, 4):
                rng = np.random.default_rng(seed)
                A, P = random_positive_tensor(rng, d, 3), random_marginals(rng, d, 3)
                bases = support_subspaces(A, P)
                assert bases.dim_degenerate == 0
                seen.clear()
                _, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.01))
                assert trace.k_stop > 0 and trace.eta == A.data.min()
                p_sq = (P.p * P.p).sum(axis=1)
                for S in seen:
                    with_bases, without = (scaling._residual_norms(S, P, b, p_sq)
                                           for b in (bases, None))
                    assert with_bases.tobytes() == without.tobytes()

    def test_the_input_decides_the_path(self, rng, monkeypatch):
        real, calls = scaling.support_subspaces, []

        def spy(A, P):
            calls.append(A)
            return real(A, P)

        monkeypatch.setattr(scaling, "support_subspaces", spy)
        A, P = _with_zeros(rng, 3, 4)
        sinkhorn_scale(A, P, SinkhornConfig(epsilon=0.01))
        assert len(calls) == 1 and calls[0] is A
        sinkhorn_scale(random_positive_tensor(rng, 3, 4), P, SinkhornConfig(epsilon=0.01))
        assert len(calls) == 1


class TestConfig:
    def test_epsilon_range(self):
        with pytest.raises(ContractViolation):
            SinkhornConfig(epsilon=0.5)
        with pytest.raises(ContractViolation):
            SinkhornConfig(epsilon=0.0)

    def test_epsilon_floor(self):
        with pytest.raises(ContractViolation, match="too small"):
            SinkhornConfig(epsilon=scaling._EPSILON_FLOOR / 2)
        assert SinkhornConfig(epsilon=scaling._EPSILON_FLOOR).epsilon == scaling._EPSILON_FLOOR

    @pytest.mark.parametrize("d, n", [(2, 2), (3, 6), (2, 100)])
    def test_a_run_reaches_the_floor(self, d, n):
        # the floor sits well above the residual's float-rounding level
        rng = np.random.default_rng(d * n)
        A = exp_neg_scaled(random_cost(rng, d, n), 5.0)
        P = random_marginals(rng, d, n)
        _, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=scaling._EPSILON_FLOOR))
        assert trace.stop == "residual" and trace.residuals[-1] < scaling._EPSILON_FLOOR
