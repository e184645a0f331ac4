"""Entropic relaxation and the delta-approximation pipeline."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from tensorot import (
    MarginalFamily,
    Tensor,
    approx_tot,
    entropic_bracket,
    entropic_tot,
    entropy,
    exp_neg_scaled,
    inner,
    outer,
    solve_exact_tot,
)
from tensorot import transport
from tensorot.scaling import SinkhornConfig
from tensorot.transport import _lower_bound

from conftest import max_marginal_gap, random_cost, random_marginals, traced_peak


def uniform_family(d, n):
    return MarginalFamily(np.full((d, n), 1.0 / n))


def swap_cost():
    return Tensor([[0.0, 1.0], [1.0, 0.0]])


class TestEntropic:
    def test_zero_cost_gives_product_plan(self, rng):
        P = random_marginals(rng, 3, 3)
        res = entropic_tot(Tensor(np.zeros((3, 3, 3))), P, lam=4.0, epsilon=0.01)
        expect = outer(P.p)
        assert np.abs(res.plan.data - expect.data).max() < 5e-3
        assert res.value == pytest.approx(-entropy(expect) / 4.0, abs=1e-2)

    def test_symmetric_closed_form(self):
        for lam in (1.0, 5.0, 10.0):
            res = entropic_tot(swap_cost(), uniform_family(2, 2), lam=lam, epsilon=0.01)
            expect = math.exp(-lam) / (1.0 + math.exp(-lam))
            assert res.trace.k_stop == 0
            assert res.cost == pytest.approx(expect, abs=1e-12)

    def test_large_lam_approaches_lp_value(self):
        res = entropic_tot(swap_cost(), uniform_family(2, 2), lam=60.0, epsilon=0.01)
        assert res.cost == pytest.approx(0.0, abs=1e-12)

    def test_the_iterate_is_not_checked_again(self, rng, monkeypatch):
        # the scaling returns a probability tensor: its entropy is taken
        # without require_probability's two more passes over it
        C, P = random_cost(rng, 3, 12), random_marginals(rng, 3, 12)
        expect = entropic_tot(C, P, lam=7.0, epsilon=0.05)
        calls = []
        real = Tensor.require_probability

        def spy(self, what="tensor"):
            calls.append(what)
            return real(self, what)

        monkeypatch.setattr(Tensor, "require_probability", spy)
        res = entropic_tot(C, P, lam=7.0, epsilon=0.05)
        assert calls == []
        assert res.entropy == entropy(res.plan) == expect.entropy
        assert calls == ["entropy argument"]

    def test_value_decomposition(self, rng):
        C = random_cost(rng, 2, 3)
        P = random_marginals(rng, 2, 3)
        res = entropic_tot(C, P, lam=7.0, epsilon=0.05)
        assert res.value == pytest.approx(res.cost - res.entropy / 7.0, abs=1e-12)


class TestBracket:
    def test_width(self):
        low, high = entropic_bracket(1.5, 10.0, n=2, d=2)
        assert low == 1.5
        assert high - low == pytest.approx(2 * math.log(2) / 10.0)

    def test_width_monotone_in_lam(self):
        widths = [entropic_bracket(0.0, lam, 3, 3)[1] for lam in (5.0, 20.0, 80.0)]
        assert widths[0] > widths[1] > widths[2]

    def test_contains_oracle_value(self, rng):
        # with the finite-epsilon slack from the rounding analysis
        for _ in range(5):
            C = random_cost(rng, 2, 3)
            P = random_marginals(rng, 2, 3)
            eps = 0.05
            res = entropic_tot(C, P, lam=20.0, epsilon=eps)
            tau = solve_exact_tot(C, P).value
            slack = 8 * 2 * float(np.abs(C.data).max()) * eps
            low, high = entropic_bracket(res.value, 20.0, 3, 2)
            assert low - slack - 1e-9 <= tau <= high + slack + 1e-9


class TestApproxTot:
    def test_constant_cost_exact(self, rng):
        P = random_marginals(rng, 3, 2)
        B, cert = approx_tot(Tensor(np.full((2, 2, 2), 2.5)), P, delta=0.1)
        assert cert.value == pytest.approx(2.5, abs=1e-12)
        assert cert.k_stop == 0
        assert cert.theoretical_error == 0.0
        assert cert.stop == "certified" and cert.bracket_low == cert.bracket_high

    def test_hand_instance(self):
        B, cert = approx_tot(swap_cost(), uniform_family(2, 2), delta=0.1)
        assert cert.value <= 0.1
        assert max_marginal_gap(B, uniform_family(2, 2), ord=np.inf) <= 1e-10

    def test_delta_guarantee_random(self, rng):
        for _ in range(10):
            C = random_cost(rng, 3, 3)
            P = random_marginals(rng, 3, 3)
            B, cert = approx_tot(C, P, delta=0.2)
            tau = solve_exact_tot(C, P).value
            assert cert.value - tau <= 0.2
            assert max_marginal_gap(B, P, ord=np.inf) <= 1e-10

    def test_policy_parameters(self, rng):
        C = random_cost(rng, 3, 3)
        P = random_marginals(rng, 3, 3)
        delta = 0.15
        _, cert = approx_tot(C, P, delta=delta)
        omega = float(C.data.max() - C.data.min())
        assert cert.lam == pytest.approx(2 * 3 * math.log(3) / delta)
        assert cert.epsilon == pytest.approx(min(0.25, delta / (16 * 3 * omega)))
        assert cert.theoretical_error <= delta + 1e-12

    def test_explicit_parameter_override(self, rng):
        C = random_cost(rng, 2, 2)
        P = random_marginals(rng, 2, 2)
        _, cert = approx_tot(C, P, delta=0.3, lam=9.0, epsilon=0.02)
        assert cert.lam == 9.0
        assert cert.epsilon == 0.02

    def test_shift_equivariance(self, rng):
        C = random_cost(rng, 2, 3)
        P = random_marginals(rng, 2, 3)
        t = 2.5
        _, base = approx_tot(C, P, delta=0.1)
        _, shifted = approx_tot(Tensor(C.data + t), P, delta=0.1)
        assert shifted.value - base.value == pytest.approx(t, abs=2e-9)

    def test_certificate_consistency(self, rng):
        C = random_cost(rng, 3, 2)
        P = random_marginals(rng, 3, 2)
        B, cert = approx_tot(C, P, delta=0.2)
        assert cert.bracket_low <= cert.bracket_high
        assert cert.value >= cert.bracket_low - 1e-8
        assert cert.value == pytest.approx(inner(C, B), abs=1e-12)
        assert cert.movement_l1 >= 0.0

    def test_rejects_nonprobability_marginals(self):
        P = MarginalFamily([[1.0, 1.0], [0.5, 1.5]])
        from tensorot import ContractViolation

        with pytest.raises(ContractViolation):
            approx_tot(swap_cost(), P, delta=0.1)

    def test_nonconvergence_carries_partial(self, rng, monkeypatch):
        from tensorot import NonConvergenceError

        C = random_cost(rng, 2, 3)
        P = random_marginals(rng, 2, 3)
        monkeypatch.setattr(transport, "SinkhornConfig",
                            functools.partial(SinkhornConfig, max_iter=1))
        with pytest.raises(NonConvergenceError) as err:
            approx_tot(C, P, delta=0.05)
        assert err.value.trace is not None
        assert [r.k for r in err.value.trace.records] == [0]

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_subnormal_kernel_minimum(self, seed):
        # lam*omega is about 745: the kernel's smallest entry is subnormal,
        # so mass/eta overflows and the iteration bound needs log differences
        rng = np.random.default_rng(seed)
        C = Tensor(rng.random((12,) * 3))
        p = 0.2 + rng.random((3, 12))
        P = MarginalFamily(p / p.sum(axis=1, keepdims=True))
        B, cert = approx_tot(C, P, delta=0.02)
        assert 0.0 < cert.eta < np.finfo(float).tiny
        tau = solve_exact_tot(C, P).value
        assert tau - 1e-12 <= cert.value <= tau + 0.02
        assert max_marginal_gap(B, P, ord=np.inf) <= 1e-10

    def test_rejects_an_underflowing_kernel(self):
        # exp(-1000) is 0 in floating point: the scaling would keep those
        # cells at zero, which no entropic plan does
        from tensorot import ContractViolation

        with pytest.raises(ContractViolation, match="underflows"):
            approx_tot(swap_cost(), uniform_family(2, 2), delta=0.1, lam=1000.0)
        with pytest.raises(ContractViolation, match="underflows"):
            entropic_tot(swap_cost(), uniform_family(2, 2), lam=1000.0, epsilon=0.1)

    def test_bracket_high_is_the_value(self, rng):
        _, cert = approx_tot(random_cost(rng, 2, 3), random_marginals(rng, 2, 3), delta=0.1)
        assert cert.bracket == (cert.bracket_low, cert.value)
        with pytest.raises(ValueError, match="inverted"):
            dataclasses.replace(cert, bracket_low=cert.value + 1.0)

    @pytest.mark.parametrize("epsilon", [None, 0.1])
    def test_rejects_a_cost_spread_past_the_float_range(self, epsilon):
        from tensorot import ContractViolation

        C = Tensor([[-1e308, 1e308], [1e308, -1e308]])
        with pytest.raises(ContractViolation, match="spread"):
            approx_tot(C, uniform_family(2, 2), delta=0.1, epsilon=epsilon)

    def test_copies_no_cost_sized_array(self, rng, monkeypatch):
        # every tensor approx_tot builds wraps an array it has just made
        C = random_cost(rng, 3, 5)
        flat = Tensor(np.full(C.data.shape, 0.5))  # takes the product-plan path
        P = random_marginals(rng, 3, 5)
        real, copies = np.array, []

        def spy(obj, *args, **kwargs):
            if isinstance(obj, np.ndarray) and obj.size == C.size:
                copies.append(obj.shape)
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(np, "array", spy)
        approx_tot(C, P, delta=0.1)
        approx_tot(flat, P, delta=0.1)
        assert copies == []


def _lp_potentials(C, P):
    """Optimal LP duals as (d, n) potentials y with sum_j y_j[i_j] <= C."""
    sol = solve_exact_tot(C, P)
    d, n = P.d, P.n
    Y = np.zeros((d, n))
    Y[:, :n - 1] = sol.duals[:-1].reshape(d, n - 1)
    Y[0] += sol.duals[-1]  # the total-mass row
    return sol.value, Y


class TestCertifiedBracket:
    """The bracket [bracket_low, value] holds the LP optimum on both stopping
    paths, and a certified stop is within delta of its own lower bound."""

    @pytest.mark.parametrize("delta", [0.2, 0.05, 0.02])
    @pytest.mark.parametrize("d,n", [(2, 6), (3, 4), (4, 3)])
    def test_certificate_is_sound(self, d, n, delta):
        stops = []
        for seed in range(4):
            rng = np.random.default_rng([d, n, seed])
            C, P = random_cost(rng, d, n), random_marginals(rng, d, n)
            B, cert = approx_tot(C, P, delta)
            stops.append(cert.stop)
            tau = solve_exact_tot(C, P).value
            assert cert.bracket_low <= tau + 1e-12
            assert tau <= cert.value + 1e-12
            assert cert.bracket_high == cert.value == pytest.approx(inner(C, B), abs=1e-12)
            if stops[-1] == "certified":
                assert cert.value - cert.bracket_low <= delta
            assert max_marginal_gap(B, P, ord=np.inf) <= 1e-10
        assert "certified" in stops

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 4), (4, 3)])
    def test_residual_path_brackets_the_optimum(self, tmp_path, d, n):
        # a loose epsilon stops the scaling before its first check at step 8
        path = tmp_path / "trace.jsonl"
        for seed in range(4):
            rng = np.random.default_rng([d, n, seed, 1])
            C, P = random_cost(rng, d, n), random_marginals(rng, d, n)
            _, cert = approx_tot(C, P, delta=0.05, lam=5.0, epsilon=0.2, trace_out=path)
            tau = solve_exact_tot(C, P).value
            assert cert.stop == "residual" and cert.k_stop < 8
            # the trace's last step line passed the stopping test
            assert json.loads(path.read_text().splitlines()[-2])["residual_l1"] < cert.epsilon
            assert cert.bracket_low <= tau + 1e-12
            assert tau <= cert.value + 1e-12

    @pytest.mark.parametrize("d,n", [(1, 4), (2, 5), (3, 4), (4, 3)])
    def test_lower_bound_of_the_lp_duals_is_the_optimum(self, rng, d, n):
        # y_0 comes from the other potentials alone: a spoiled X_0 and any
        # kernel normalization drop out, and X scales as lam * y
        C, P = random_cost(rng, d, n), random_marginals(rng, d, n)
        tau, Y = _lp_potentials(C, P)
        lam = 37.0
        X = lam * Y
        X[0] += 1.0 + rng.random(n)
        assert _lower_bound(C, P, X, lam) == pytest.approx(tau, abs=1e-12)

    @pytest.mark.parametrize("d, n", [(3, 6), (4, 24), (2, 200), (1, 40000)])
    def test_lower_bound_takes_the_row_minima_of_the_whole_table(self, rng, d, n):
        # a large cost is read a block of rows at a time
        C, P = random_cost(rng, d, n), random_marginals(rng, d, n)
        X = rng.standard_normal((d, n))
        Y = X / 30.0
        tail = np.zeros(1)
        for y in Y[1:]:
            tail = (tail[:, None] + y).ravel()
        Y[0] = (C.data.reshape(n, -1) - tail).min(axis=1)
        assert _lower_bound(C, P, X, 30.0) == math.fsum((P.p * Y).ravel().tolist())

    def test_lower_bound_holds_for_any_exponents(self, rng):
        C, P = random_cost(rng, 3, 4), random_marginals(rng, 3, 4)
        tau = solve_exact_tot(C, P).value
        for scale in (0.1, 1.0, 10.0, 1e3):
            assert _lower_bound(C, P, scale * rng.standard_normal((3, 4)), 20.0) <= tau + 1e-12

    def test_certified_stop_and_its_trace(self, tmp_path, rng):
        C, P = random_cost(rng, 3, 6), random_marginals(rng, 3, 6)
        path = tmp_path / "trace.jsonl"
        B, cert = approx_tot(C, P, 0.05, trace_out=path)
        assert cert.stop == "certified"
        assert cert.k_stop in (8, 16, 32, 64, 128, 256, 512, 1024)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["k"] for r in lines[:-1]] == list(range(cert.k_stop + 1))
        assert lines[-2]["mode"] is None and lines[-2]["residual_l1"] >= cert.epsilon
        assert lines[-1].keys() == {"k_stop", "bound", "eta", "mass"}
        assert lines[-1]["k_stop"] == cert.k_stop
        assert cert.value - cert.bracket_low <= 0.05


class TestMemory:
    """Peaks of new allocations at (4,24), as multiples of the cost's bytes."""

    def test_approx_tot_holds_at_most_three_cost_sized_arrays(self, rng):
        # the check holds the kernel, the iterate and the rounded plan; sums,
        # products and the rank-one correction go by blocks
        C, P = random_cost(rng, 4, 24), random_marginals(rng, 4, 24)
        (_, cert), peak = traced_peak(approx_tot, C, P, 0.05)
        assert cert.k_stop >= 8
        assert peak <= 3.5 * C.data.nbytes

    def test_the_bound_holds_while_a_caller_keeps_the_kernel(self, rng, monkeypatch):
        # a wrapper of sinkhorn_scale, or the calling frame itself, may keep
        # the kernel alive until the scaling returns
        real = transport.sinkhorn_scale
        calls = []

        def holding(*args, **kwargs):
            calls.append(args[0].n)
            return real(*args, **kwargs)

        monkeypatch.setattr(transport, "sinkhorn_scale", holding)
        C, P = random_cost(rng, 4, 24), random_marginals(rng, 4, 24)
        (_, cert), peak = traced_peak(approx_tot, C, P, 0.05)
        assert calls == [24] and cert.k_stop >= 8
        assert peak <= 3.5 * C.data.nbytes

    def test_kernel_build_holds_two_cost_sized_arrays(self, rng):
        # the shifted cost and the kernel, exponentiated in place
        C = random_cost(rng, 4, 24)
        shift = float(C.data.min())
        _, peak = traced_peak(lambda: exp_neg_scaled(Tensor(C.data - shift), 20.0))
        assert peak <= 2.2 * C.data.nbytes
