"""Acceptance criteria: every guarantee at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them all).
Shared instance batches are built once per module.
"""

import math
import time

import numpy as np
import pytest

from tensorot import (
    MarginalFamily,
    PmProblem,
    SinkhornConfig,
    Tensor,
    all_marginals,
    approx_tot,
    entropic_tot,
    g_gradient,
    g_sublevel_params,
    g_value,
    inner,
    l1_distance,
    l1_norm,
    lift_ground_metric,
    mode_orthogonal_blocks,
    pair_distance,
    pm_minimize,
    projection_kl_bounds,
    rate_bound,
    round_to_polytope,
    scaling_block_minimizer,
    sinkhorn_scale,
    solve_exact_tot,
)

from conftest import max_marginal_gap, random_marginals


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d} {label}: {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


# ---------------------------------------------------------------------------
# shared batches


@pytest.fixture(scope="module")
def approx_batch():
    """50 approx runs against the exact oracle, with timings."""
    rng = np.random.default_rng(101)
    sizes = [(n, d) for n in (2, 3) for d in (2, 3, 4)]
    runs = []
    for i in range(50):
        n, d = sizes[i % len(sizes)]
        delta = 0.1 if i % 2 == 0 else 0.25
        C = Tensor(rng.random((n,) * d))
        P = random_marginals(rng, d, n)
        start = time.monotonic()
        plan, cert = approx_tot(C, P, delta)
        elapsed = time.monotonic() - start
        tau = solve_exact_tot(C, P).value
        runs.append(dict(C=C, P=P, delta=delta, plan=plan, cert=cert,
                         tau=tau, elapsed=elapsed, n=n, d=d))
    return runs


@pytest.fixture(scope="module")
def positive_batch():
    """50 strictly positive scaling runs with their traces."""
    rng = np.random.default_rng(202)
    sizes = [(n, d) for n in (2, 3, 4) for d in (2, 3, 4)]
    runs = []
    for i in range(50):
        n, d = sizes[i % len(sizes)]
        eps = 0.05 if i % 2 == 0 else 0.1
        A = Tensor(0.05 + rng.random((n,) * d))
        P = random_marginals(rng, d, n)
        scaled, X, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=eps))
        runs.append(dict(A=A, P=P, eps=eps, scaled=scaled, trace=trace, n=n, d=d))
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_delta_guarantee(approx_batch):
    worst_gap = max(r["cert"].value - r["tau"] - r["delta"] for r in approx_batch)
    slowest = max(r["elapsed"] for r in approx_batch)
    ok = all(r["cert"].value - r["tau"] <= r["delta"] for r in approx_batch)
    ok = ok and slowest < 10.0
    report(1, "delta-approximation guarantee", ok,
           f"50/50 within delta (worst slack {worst_gap:+.3e}), slowest {slowest:.2f}s")


def test_criterion_02_iteration_bound(positive_batch):
    violations = [r for r in positive_batch if r["trace"].k_stop > r["trace"].bound]
    tightest = min(r["trace"].bound - r["trace"].k_stop for r in positive_batch)
    report(2, "iteration bound", not violations,
           f"50/50 runs, min bound margin {tightest:.1f} steps")


def test_criterion_03_stopping_marginal_gap(positive_batch):
    worst = 0.0
    ok = True
    for r in positive_batch:
        gap = max_marginal_gap(r["scaled"], r["P"])
        worst = max(worst, gap / (2 * r["eps"]))
        ok = ok and gap < 2 * r["eps"]
    report(3, "stopping-to-marginal bound", ok,
           f"max gap at {100 * worst:.1f}% of the 2*eps budget")


def test_criterion_04_rounding_certificate():
    rng = np.random.default_rng(303)
    worst_feas = 0.0
    worst_slack = -math.inf
    ok = True
    for i in range(200):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        F = Tensor(0.05 + rng.random((n,) * d))
        F = Tensor(F.data / l1_norm(F) * float(0.6 + 0.8 * rng.random()))
        P = random_marginals(rng, d, n)
        B = round_to_polytope(F, P)
        feas = max_marginal_gap(B, P, ord=np.inf)
        budget = 2.0 * float(np.abs(all_marginals(F) - P.p).sum())
        slack = l1_distance(B, F) - budget
        worst_feas = max(worst_feas, feas)
        worst_slack = max(worst_slack, slack)
        ok = ok and feas <= 1e-10 and slack <= 1e-10 and B.data.min() >= 0
    report(4, "rounding certificate", ok,
           f"200/200; worst feasibility {worst_feas:.2e}, movement slack {worst_slack:+.2e}")


def test_criterion_05_entropic_bracket(approx_batch):
    eps = 0.05
    lams = (5.0, 20.0, 80.0)
    ok = True
    worst = -math.inf
    for r in approx_batch[:12]:
        C, P, tau = r["C"], r["P"], r["tau"]
        slack = 8 * r["d"] * float(np.abs(C.data).max()) * eps
        widths = []
        for lam in lams:
            res = entropic_tot(C, P, lam=lam, epsilon=eps)
            width = r["d"] * math.log(r["n"]) / lam
            widths.append(width)
            low = res.value - slack
            high = res.value + width + slack
            worst = max(worst, max(low - tau, tau - high))
            ok = ok and low - 1e-9 <= tau <= high + 1e-9
        ok = ok and widths[0] > widths[1] > widths[2]
    report(5, "entropic bracket", ok,
           f"12 instances x 3 lambdas; worst bracket violation {worst:+.2e}")


def test_criterion_06_closed_form_entropic():
    C = Tensor([[0.0, 1.0], [1.0, 0.0]])
    P = MarginalFamily(np.full((2, 2), 0.5))
    worst = 0.0
    for lam in (1.0, 5.0, 10.0):
        res = entropic_tot(C, P, lam=lam, epsilon=0.01)
        expect = math.exp(-lam) / (1.0 + math.exp(-lam))
        worst = max(worst, abs(res.cost - expect))
    report(6, "closed-form entropic value", worst <= 1e-9,
           f"lambda in (1, 5, 10); max deviation {worst:.2e}")


def test_criterion_07_metric_axioms():
    rng = np.random.default_rng(404)
    ground = np.array([[0.0, 1.0, 1.6], [1.0, 0.0, 1.2], [1.6, 1.2, 0.0]])
    C = lift_ground_metric(ground, 4, mode="matching")
    ok = True
    worst_self = 0.0
    for _ in range(10):
        left = random_marginals(rng, 2, 3).p
        worst_self = max(worst_self, abs(pair_distance(C, left, left)))
    ok = ok and worst_self <= 1e-9
    min_positive = math.inf
    for _ in range(20):
        left = random_marginals(rng, 2, 3).p
        right = random_marginals(rng, 2, 3).p
        value = pair_distance(C, left, right)
        sym = pair_distance(C, right, left)
        ok = ok and abs(value - sym) <= 1e-8
        min_positive = min(min_positive, value)
    ok = ok and min_positive > 1e-9
    worst_triangle = -math.inf
    for _ in range(50):
        ps = [random_marginals(rng, 2, 3).p for _ in range(3)]
        d13 = pair_distance(C, ps[0], ps[2])
        d12 = pair_distance(C, ps[0], ps[1])
        d23 = pair_distance(C, ps[1], ps[2])
        worst_triangle = max(worst_triangle, d13 - d12 - d23)
        ok = ok and d13 <= d12 + d23 + 1e-8
    report(7, "metric axioms", ok,
           f"self<= {worst_self:.1e}, min positive {min_positive:.3f}, "
           f"worst triangle slack {worst_triangle:+.2e}")


def test_criterion_08_telescoping(positive_batch):
    worst = 0.0
    checked = 0
    ok = True
    for r in positive_batch:
        trace = r["trace"]
        g = trace.g_values
        kl = trace.kl_values
        for k in range(1, trace.k_stop):
            gap = abs((g[k] - g[k + 1]) - kl[k])
            worst = max(worst, gap)
            ok = ok and gap <= 1e-8
            checked += 1
    report(8, "telescoping identity", ok,
           f"{checked} steps across 50 traces; worst mismatch {worst:.2e}")


def test_criterion_09_projection_kl_inequalities():
    rng = np.random.default_rng(505)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(n)) + 1e-9
        p = p / p.sum()
        q = rng.dirichlet(np.ones(n))
        if not projection_kl_bounds(p, q).all_ok:
            violations += 1
    extremal = projection_kl_bounds(
        np.array([0.5, 1 / 6, 1 / 6, 1 / 6]), np.array([1.0, 0.0, 0.0, 0.0]))
    gap = abs(extremal.scale - (math.sqrt(4) + 1) / 2)
    ok = violations == 0 and gap <= 1e-12
    report(9, "projection/KL inequalities", ok,
           f"1000 pairs, {violations} violations; extremal scale gap {gap:.1e}")


def test_criterion_10_support_variant():
    rng = np.random.default_rng(606)
    ok = True
    worst_ratio = 0.0
    for i in range(20):
        n, d = [(3, 3), (2, 3), (3, 2), (2, 4)][i % 4]
        eps = 0.05 if i % 2 == 0 else 0.1
        P = random_marginals(rng, d, n)
        vertex = solve_exact_tot(Tensor(rng.random((n,) * d)), P).plan
        pattern = vertex.data > 1e-9
        A = Tensor(np.where(pattern, 0.5 + rng.random(pattern.shape), 0.0))
        scaled, X, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=eps))
        gap = max_marginal_gap(scaled, P)
        ok = ok and gap < 2 * eps and trace.k_stop <= trace.bound
        ok = ok and np.array_equal(scaled.data == 0, A.data == 0)
        worst_ratio = max(worst_ratio, gap / (2 * eps))
    report(10, "support-restricted variant", ok,
           f"20/20 supported instances; max gap at {100 * worst_ratio:.1f}% of budget")


def test_criterion_11_pm_rate_bound():
    rng = np.random.default_rng(707)
    ok = True
    total_steps = 0
    for i in range(20):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        A = Tensor(0.1 + rng.random((n,) * d))
        A = Tensor(A.data / l1_norm(A))
        P = random_marginals(rng, d, n)
        prob = PmProblem(
            objective=lambda x, A=A, P=P, d=d, n=n: g_value(A, P, x.reshape(d, n)),
            gradient=lambda x, A=A, P=P, d=d, n=n: g_gradient(A, P, x.reshape(d, n)).ravel(),
            blocks=mode_orthogonal_blocks(P),
            x0=np.zeros(d * n),
            s=1.0,
            tol=1e-9,
            max_iter=3000,
            minimizer=scaling_block_minimizer(A, P),
        )
        result = pm_minimize(prob)
        params = g_sublevel_params(A, P, result.iterates, rng=rng)
        rep = rate_bound(result.f_values, params, d=d, f_star=result.f_values[-1])
        ok = ok and rep.ok
        total_steps += result.steps
    report(11, "partial-minimization rate bound", ok,
           f"20 fixtures, {total_steps} steps audited, no violations")
