"""Entropic relaxation and the delta-approximation pipeline."""

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
    inner,
    outer,
    solve_exact_tot,
)

from conftest import max_marginal_gap, random_cost, random_marginals


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

    def test_nonconvergence_carries_partial(self, rng):
        from tensorot import NonConvergenceError

        C = random_cost(rng, 2, 3)
        P = random_marginals(rng, 2, 3)
        with pytest.raises(NonConvergenceError) as err:
            approx_tot(C, P, delta=0.05, max_iter=1)
        assert err.value.partial["delta"] == 0.05
        assert err.value.trace is not None

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
