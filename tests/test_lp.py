"""Exact LP oracle: simplex correctness, duals, Bland's rule, scalability."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from tensorot import (
    ContractViolation,
    MarginalFamily,
    Tensor,
    inner,
    lift_ground_metric,
    outer,
    save_marginals,
    save_tensor,
    scalability_check,
    simplex_minimize,
    solve_exact_tot,
    transport_constraints,
)
from tensorot import lp
from tensorot.cli import run
from tensorot.lp import CAP_ENV_VAR

from conftest import feasible_plan, max_marginal_gap, random_cost, random_marginals


class TestSimplexCore:
    def test_tiny_lp(self):
        # min -x - y  s.t.  x + y = 1
        res = simplex_minimize([-1.0, -1.0], [[1.0, 1.0]], [1.0])
        assert res.value == pytest.approx(-1.0)

    def test_matches_scipy_on_random_instances(self, rng):
        for _ in range(20):
            m, nvars = 4, 9
            A = rng.random((m, nvars))
            x_feas = rng.random(nvars)
            b = A @ x_feas  # guarantees feasibility
            c = rng.normal(size=nvars)
            ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            if not ref.success:
                continue
            res = simplex_minimize(c, A, b)
            assert res.value == pytest.approx(ref.fun, abs=1e-8)

    def test_duals_certify_optimum(self, rng):
        flipped = 0
        for _ in range(20):
            A = rng.normal(size=(4, 9))
            b = A @ rng.random(9)
            c = A.T @ rng.normal(size=4) + rng.random(9)  # dual feasible: bounded
            res = simplex_minimize(c, A, b)
            flipped += bool((b < 0).any())  # their artificials start as -e_r
            assert (c - A.T @ res.duals).min() >= -1e-9
            assert res.duals @ b == pytest.approx(res.value, abs=1e-9)
        assert flipped >= 10

    def test_redundant_rows_match_highs(self, rng):
        negative = 0
        for i in range(30):
            A = rng.normal(size=(4, 9))
            b = A @ rng.random(9)
            c = A.T @ rng.normal(size=4) + rng.random(9)  # dual feasible: bounded
            # a copy of one row, or a combination of all of them
            w = np.eye(4)[i % 4] if i % 2 else rng.normal(size=4)
            A = np.vstack([A, w @ A])
            b = np.append(b, w @ b)
            A.setflags(write=False)  # the simplex only reads A_eq
            negative += bool((b < 0).any())
            ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            assert ref.status == 0, ref.message
            res = simplex_minimize(c, A, b)
            assert res.duals is None
            assert res.value == pytest.approx(ref.fun, abs=1e-9)
            assert np.abs(res.x - ref.x).max() <= 1e-8
        assert negative >= 10

    def test_blands_switch_breaks_beales_cycle(self):
        # Beale (1955): Dantzig's rule with the smallest-index tie break cycles
        # from the slack basis {x1, x2, x3}; only the switch to Bland's ends it
        A = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                      [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
        cost = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
        Binv, x_B, basis = np.eye(3), np.array([0.0, 0.0, 1.0]), np.arange(3)
        pivots = lp._run_phase(lp._DenseColumns(A), cost, Binv, x_B, basis)
        assert pivots > 2 * (3 + 7)  # it cycled until the switch
        assert cost[basis] @ x_B == pytest.approx(-1.25, abs=1e-12)
        assert np.abs(A[:, basis] @ x_B - [0.0, 0.0, 1.0]).max() <= 1e-12

    def test_a_start_off_the_polytope_is_dropped(self):
        # x1 takes row 0, then x0 row 1: x1 = 2 and x0 = -1
        A, b, c = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 2.0], [1.0, 3.0, 1.0]
        res = simplex_minimize(c, A, b, start=[1, 0])
        ref = simplex_minimize(c, A, b)
        assert (res.value, res.iterations) == (ref.value, ref.iterations)
        assert np.array_equal(res.x, ref.x)

    def test_infeasible_detected(self):
        from tensorot.lp import InfeasibleError

        with pytest.raises(InfeasibleError):
            simplex_minimize([1.0], [[1.0], [1.0]], [1.0, 2.0])


class TestSolveExact:
    def test_order_one(self, rng):
        P = random_marginals(rng, 1, 4)
        C = random_cost(rng, 1, 4)
        sol = solve_exact_tot(C, P)
        assert np.abs(sol.plan.data - P.p[0]).max() < 1e-12
        assert sol.value == pytest.approx(float(C.data @ P.p[0]), abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_cost(self, rng, bad):
        data = random_cost(rng, 2, 3).data.copy()
        data[1, 2] = bad
        with pytest.raises(ContractViolation, match="finite"):
            solve_exact_tot(Tensor(data), random_marginals(rng, 2, 3))

    @pytest.mark.parametrize("scale", [1e-300, 1e-12, 1e8, 1e100, 1e300])
    def test_costs_far_from_unit_scale(self, rng, scale):
        # the pivot tolerances are absolute: such costs are priced after an
        # exact power-of-two scaling
        for d, n in ((2, 6), (3, 4)):
            C = random_cost(rng, d, n)
            P = random_marginals(rng, d, n)
            sol, unit = solve_exact_tot(Tensor(C.data * scale), P), solve_exact_tot(C, P)
            assert sol.value / scale == pytest.approx(unit.value, rel=1e-12)
            assert np.abs(sol.duals / scale - unit.duals).max() < 1e-12
            assert max_marginal_gap(sol.plan, P) < 1e-10

    def test_largest_finite_costs(self):
        P = MarginalFamily([[0.2, 0.3, 0.5], [0.3, 0.3, 0.4]])
        sol = solve_exact_tot(Tensor(np.full((3, 3), 1e308)), P)
        assert sol.value == pytest.approx(1e308, rel=1e-12)

    def test_hand_lp(self):
        C = Tensor([[0.0, 1.0], [1.0, 0.0]])
        P = MarginalFamily([[0.5, 0.5], [0.5, 0.5]])
        sol = solve_exact_tot(C, P)
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.plan.data, [[0.5, 0.0], [0.0, 0.5]], atol=1e-10)

    def test_product_plan_upper_bound(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 4))
            C = random_cost(rng, d, n)
            P = random_marginals(rng, d, n)
            sol = solve_exact_tot(C, P)
            assert sol.value <= inner(C, outer(P.p)) + 1e-10

    def test_feasibility_of_optimum(self, rng):
        for _ in range(10):
            C = random_cost(rng, 3, 3)
            P = random_marginals(rng, 3, 3)
            sol = solve_exact_tot(C, P)
            assert max_marginal_gap(sol.plan, P, ord=np.inf) <= 1e-9
            assert sol.plan.data.min() >= -1e-12

    def test_beats_sampled_feasible_plans(self, rng):
        C = random_cost(rng, 3, 3)
        P = random_marginals(rng, 3, 3)
        sol = solve_exact_tot(C, P)
        for _ in range(10_000):
            sample = feasible_plan(rng, P)
            assert sol.value <= inner(C, sample) + 1e-9

    def test_forced_bland_agrees(self, rng, monkeypatch):
        instances = [(random_cost(rng, 3, 3), random_marginals(rng, 3, 3)) for _ in range(10)]
        dantzig = [solve_exact_tot(C, P).value for C, P in instances]
        choose = lp._choose_entering
        monkeypatch.setattr(lp, "_choose_entering", lambda reduced, use_bland: choose(reduced, True))
        for (C, P), value in zip(instances, dantzig):
            assert solve_exact_tot(C, P).value == pytest.approx(value, abs=1e-9)

    def test_matches_scipy(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 4))
            C = random_cost(rng, d, n)
            P = random_marginals(rng, d, n)
            A_eq, b_eq = transport_constraints(P)
            ref = linprog(C.data.ravel(), A_eq=A_eq, b_eq=b_eq,
                          bounds=(0, None), method="highs")
            sol = solve_exact_tot(C, P)
            assert sol.value == pytest.approx(ref.fun, abs=1e-9)

    def test_duality_gap(self, rng):
        for _ in range(10):
            C = random_cost(rng, 3, 3)
            P = random_marginals(rng, 3, 3)
            sol = solve_exact_tot(C, P)
            assert sol.duals is not None
            _, b_eq = transport_constraints(P)
            assert abs(sol.value - sol.duals @ b_eq) <= 1e-9

    def test_dual_feasibility(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 5))
            C = random_cost(rng, d, n)
            P = random_marginals(rng, d, n)
            sol = solve_exact_tot(C, P)
            A_eq, _ = transport_constraints(P)
            assert sol.duals is not None
            assert (C.data.ravel() - A_eq.T @ sol.duals).min() >= -1e-9

    def test_value_is_the_least_basic_feasible_solution(self, rng):
        # every basis of the transport rows, solved directly: no simplex, no HiGHS
        for d, n in ((2, 3), (3, 2), (2, 4), (4, 2)):
            P = random_marginals(rng, d, n)
            A_eq, b_eq = transport_constraints(P)
            m, size = A_eq.shape
            bases = np.array(list(itertools.combinations(range(size), m)))
            B = A_eq[:, bases].transpose(1, 0, 2)
            regular = np.abs(np.linalg.det(B)) > 0.5  # 0/1 matrices: |det| is 0 or >= 1
            bases, B = bases[regular], B[regular]
            x_B = np.linalg.solve(B, np.tile(b_eq, (len(B), 1))[..., None])[..., 0]
            feasible = (x_B >= -1e-12).all(axis=1)
            vertices = np.zeros((feasible.sum(), size))
            np.put_along_axis(vertices, bases[feasible], x_B[feasible], axis=1)
            for _ in range(3):
                C = random_cost(rng, d, n)
                sol = solve_exact_tot(C, P)
                assert sol.value == pytest.approx((vertices @ C.data.ravel()).min(), abs=1e-12)
                assert np.abs(vertices - sol.plan.data.ravel()).max(axis=1).min() <= 1e-12

    def test_solve_holds_little_more_than_the_constraints(self, rng):
        P = random_marginals(rng, 4, 12)
        C = random_cost(rng, 4, 12)
        nbytes = transport_constraints(P)[0].nbytes
        tracemalloc.start()
        try:
            solve_exact_tot(C, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * nbytes

    def test_solve_holds_no_constraint_matrix(self, rng):
        # the transport columns are priced implicitly: only vectors the size
        # of the cost tensor and the small basis inverse are held
        P = random_marginals(rng, 4, 12)
        C = random_cost(rng, 4, 12)
        nbytes = transport_constraints(P)[0].nbytes
        tracemalloc.start()
        try:
            solve_exact_tot(C, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * nbytes

    def test_matches_the_dense_simplex(self, rng):
        for d, n in ((1, 5), (2, 6), (3, 4), (4, 3), (2, 1), (3, 20)):
            C = random_cost(rng, d, n)
            P = random_marginals(rng, d, n)
            sol = solve_exact_tot(C, P)
            ref = simplex_minimize(C.data.ravel(), *transport_constraints(P),
                                   start=lp._greedy_cells(C.data, P))
            assert sol.value == pytest.approx(ref.value, abs=1e-12)
            assert np.array_equal(sol.plan.data.ravel() > 0, ref.x > 0)
            assert sol.iterations == ref.iterations
        # the artificial start, which scalability_check takes, on both readings
        plain = simplex_minimize(C.data.ravel(), lp._TransportColumns(d, n), lp._transport_rhs(P))
        ref = simplex_minimize(C.data.ravel(), *transport_constraints(P))
        assert plain.value == pytest.approx(ref.value, abs=1e-12)
        assert np.array_equal(plain.x > 0, ref.x > 0)
        assert plain.iterations == ref.iterations > sol.iterations

    def test_value_scales_with_the_mass(self, rng):
        C = random_cost(rng, 3, 3)
        P = random_marginals(rng, 3, 3)
        heavy = solve_exact_tot(C, MarginalFamily(2.5 * P.p))
        assert heavy.value == pytest.approx(2.5 * solve_exact_tot(C, P).value, abs=1e-12)
        assert heavy.plan.data.sum() == pytest.approx(2.5, abs=1e-12)

    def test_constraint_count(self, rng):
        P = random_marginals(rng, 3, 4)
        A_eq, b_eq = transport_constraints(P)
        assert A_eq.shape == (3 * (4 - 1) + 1, 4**3)
        assert np.linalg.matrix_rank(A_eq) == A_eq.shape[0]

    def test_cap(self, rng, monkeypatch):
        C = random_cost(rng, 3, 3)
        P = random_marginals(rng, 3, 3)
        monkeypatch.setenv(CAP_ENV_VAR, "10")
        with pytest.raises(ContractViolation, match="above the solver cap 10"):
            solve_exact_tot(C, P)
        with pytest.raises(ContractViolation, match="above the solver cap 10"):
            scalability_check(C, P)
        monkeypatch.setenv(CAP_ENV_VAR, "27")
        assert solve_exact_tot(C, P).plan.size == 27

    @pytest.mark.parametrize("raw", ["abc", "1e3", "0", "-5", ""])
    def test_malformed_cap(self, rng, monkeypatch, tmp_path, capsys, raw):
        C = random_cost(rng, 2, 3)
        P = random_marginals(rng, 2, 3)
        monkeypatch.setenv(CAP_ENV_VAR, raw)
        for solve in (solve_exact_tot, scalability_check):
            with pytest.raises(ContractViolation, match=CAP_ENV_VAR):
                solve(C, P)
        save_tensor(C, tmp_path / "c.json")
        save_marginals(P, tmp_path / "p.json")
        for command, flag in (("solve-exact", "--cost"), ("scalable", "--tensor")):
            code = run([command, flag, str(tmp_path / "c.json"),
                        "--marginals", str(tmp_path / "p.json")])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert CAP_ENV_VAR in captured.err


def _greedy_loop(C, P):
    """The greedy min-cost plan, one cell at a time: the walk's reference."""
    rest, plan = P.p.copy(), np.zeros(C.size)
    for cell in np.argsort(C, axis=None, kind="stable"):
        index = np.unravel_index(cell, C.shape)
        amount = min(rest[j, i] for j, i in enumerate(index))
        if amount > lp._ZERO_RTOL * P.h:
            plan[cell] = amount
            for j, i in enumerate(index):
                rest[j, i] -= amount
    return plan


def _crash_cases():
    """Costs and marginals the crash start must solve like HiGHS."""
    rng = np.random.default_rng(15)
    ground = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    ratios = MarginalFamily(np.array([[1, 1, 2], [2, 1, 1], [1, 2, 1]]) / 4)
    dyadic = MarginalFamily([[0.25, 0.25, 0.25, 0.25], [0.5, 0.25, 0.125, 0.125]])
    return {
        "uniform": (random_cost(rng, 3, 4), MarginalFamily(np.full((3, 4), 0.25))),
        "integer-ratios": (random_cost(rng, 3, 3), ratios),
        "dyadic-ratios": (random_cost(rng, 2, 4), dyadic),
        "mass-2.5": (random_cost(rng, 3, 4), MarginalFamily(2.5 * random_marginals(rng, 3, 4).p)),
        "d=1": (random_cost(rng, 1, 5), random_marginals(rng, 1, 5)),
        "n=1": (random_cost(rng, 3, 1), MarginalFamily(np.full((3, 1), 2.5))),
        "n=2": (random_cost(rng, 4, 2), random_marginals(rng, 4, 2)),
        "integer-costs": (Tensor(rng.integers(0, 4, size=(4,) * 3).astype(float)),
                          MarginalFamily(np.full((3, 4), 0.25))),
        "integer-costs-and-ratios": (Tensor(rng.integers(0, 3, size=(3,) * 3).astype(float)),
                                     ratios),
        "constant-cost": (Tensor(np.full((4,) * 3, 0.7)), random_marginals(rng, 3, 4)),
        "sum-lift": (lift_ground_metric(ground, 4, "sum"), MarginalFamily(np.full((4, 3), 1 / 3))),
    }


class TestCrashStart:
    """solve_exact_tot starts from the greedy min-cost plan's cells."""

    def test_walk_matches_the_plain_loop(self, rng):
        cases = list(_crash_cases().values())
        for d, n in ((2, 30), (3, 12), (4, 6), (5, 4)):
            cases.append((random_cost(rng, d, n), random_marginals(rng, d, n)))
        for C, P in cases:
            plan = _greedy_loop(C.data, P)
            cells = lp._greedy_cells(C.data, P)
            assert np.array_equal(cells, np.flatnonzero(plan)[np.argsort(
                C.data.ravel()[plan > 0], kind="stable")])
            assert cells.size <= P.d * (P.n - 1) + 1
            assert max_marginal_gap(Tensor(plan.reshape(C.data.shape)), P) <= 1e-12 * P.h

    @pytest.mark.parametrize("case", list(_crash_cases()))
    def test_matches_highs(self, case):
        C, P = _crash_cases()[case]
        A_eq, b_eq = transport_constraints(P)
        ref = linprog(C.data.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        assert ref.status == 0, ref.message
        sol = solve_exact_tot(C, P)
        assert sol.value == pytest.approx(ref.fun, abs=1e-12)
        assert np.count_nonzero(sol.plan.data) <= A_eq.shape[0]
        assert sol.plan.data.min() >= 0
        assert (C.data.ravel() - A_eq.T @ sol.duals).min() >= -1e-12

    def test_ties_leave_artificial_rows_to_the_crash(self):
        # cells that use up entries of several modes at once: fewer than m
        cases = _crash_cases()
        for case in ("integer-ratios", "dyadic-ratios", "integer-costs", "sum-lift"):
            C, P = cases[case]
            assert lp._greedy_cells(C.data, P).size < P.d * (P.n - 1) + 1, case

    def test_plans_are_nonnegative(self):
        # drifted degenerate basics read as small negative entries
        for d, n in ((4, 5), (4, 6), (3, 8)):
            P = MarginalFamily(np.full((d, n), 1.0 / n))
            for seed in range(50):
                C = Tensor(np.random.default_rng([d, n, seed]).random((n,) * d))
                plan = solve_exact_tot(C, P).plan
                assert plan.data.min() >= 0, (d, n, seed)
                assert max_marginal_gap(plan, P, ord=np.inf) <= 1e-12, (d, n, seed)

    def test_halves_the_priced_pivots(self):
        rng = np.random.default_rng(12)
        C, P = random_cost(rng, 3, 12), random_marginals(rng, 3, 12)
        crash = solve_exact_tot(C, P)
        plain = simplex_minimize(C.data.ravel(), lp._TransportColumns(3, 12), lp._transport_rhs(P))
        assert crash.value == pytest.approx(plain.value, abs=1e-12)
        assert 2 * crash.iterations <= plain.iterations


class TestTransportColumns:
    """The implicit transport system reads as transport_constraints' A_eq."""

    def test_price_and_columns_match_the_dense_matrix(self, rng):
        for d in range(1, 5):
            for n in range(1, 6):
                P = MarginalFamily(np.full((d, n), 1.0 / n))
                A_eq, _ = transport_constraints(P)
                cols = lp._TransportColumns(d, n)
                assert cols.shape == A_eq.shape
                for _ in range(3):
                    # dyadic duals: every sum is exact, whatever its order
                    y = rng.integers(-64, 65, size=A_eq.shape[0]) / 8.0
                    assert np.array_equal(cols.price(y), y @ A_eq), (d, n)
                for j in range(A_eq.shape[1]):
                    assert np.array_equal(cols.column(j), A_eq[:, j]), (d, n, j)

    def test_right_hand_side_matches(self, rng):
        for d, n in ((1, 4), (3, 1), (3, 5)):
            P = random_marginals(rng, d, n)
            _, b_eq = transport_constraints(P)
            assert np.array_equal(lp._transport_rhs(P), b_eq)


class TestScalability:
    def test_strictly_positive(self, rng):
        A = Tensor(0.5 + rng.random((3, 3, 3)))
        P = random_marginals(rng, 3, 3)
        assert scalability_check(A, P) is True

    def test_diagonal_pattern(self):
        A = Tensor([[1.0, 0.0], [0.0, 1.0]])
        P = MarginalFamily([[0.5, 0.5], [0.5, 0.5]])
        assert scalability_check(A, P) is True

    def test_zero_row_fails(self):
        A = Tensor([[1.0, 1.0], [0.0, 0.0]])
        P = MarginalFamily([[0.5, 0.5], [0.5, 0.5]])
        assert scalability_check(A, P) is False

    def test_vertex_supports_are_scalable(self, rng):
        for _ in range(5):
            P = random_marginals(rng, 3, 3)
            sol = solve_exact_tot(random_cost(rng, 3, 3), P)
            pattern = (sol.plan.data > 1e-9).astype(float)
            assert scalability_check(Tensor(pattern), P) is True

    def test_too_sparse_pattern_fails(self):
        # a single cell cannot carry two different marginals
        A = Tensor([[1.0, 0.0], [0.0, 0.0]])
        P = MarginalFamily([[0.6, 0.4], [0.5, 0.5]])
        assert scalability_check(A, P) is False

    def test_check_holds_little_more_than_the_constraints(self, rng):
        # the support system is the only large array the check holds
        P = random_marginals(rng, 4, 12)
        A = Tensor((rng.random((12,) * 4) > 0.3) * (0.5 + rng.random((12,) * 4)))
        nbytes = transport_constraints(P)[0].nbytes
        tracemalloc.start()
        try:
            assert scalability_check(A, P) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * nbytes

    def test_lp_lives_on_the_transport_rows(self, rng, monkeypatch):
        shapes = []
        solve = lp.simplex_minimize

        def spy(c, A_eq, b_eq):
            shapes.append(np.shape(A_eq))
            return solve(c, A_eq, b_eq)

        monkeypatch.setattr(lp, "simplex_minimize", spy)
        for d, n in ((2, 4), (3, 3), (3, 5)):
            A = Tensor((rng.random((n,) * d) > 0.3) * (0.5 + rng.random((n,) * d)))
            scalability_check(A, random_marginals(rng, d, n))
            assert shapes.pop() == (d * (n - 1) + 1, np.count_nonzero(A.data) + 1)

    def test_matches_highs_max_t(self, rng):
        scalable = 0
        feasible_only = 0
        for i in range(100):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            P = random_marginals(rng, d, n, floor=0.1)
            if i % 5 == 0:
                plan = solve_exact_tot(random_cost(rng, d, n), P).plan.data
                pattern = (plan > 1e-9).astype(float)
            elif i % 5 == 1:  # feasible, but mass balance keeps one cell at 0
                k = int(rng.integers(1, n))
                idx = np.indices((n,) * d)
                block = (idx[0] < k) == (idx[1] < k)
                plan = block * (0.1 + rng.random((n,) * d))
                P = MarginalFamily([
                    plan.sum(axis=tuple(a for a in range(d) if a != j)) / plan.sum()
                    for j in range(d)])
                pattern = block.astype(float)
                pattern[(k, 0) + (0,) * (d - 2)] = 1.0
            elif i % 5 == 2:  # d*(n-1) cells: usually too sparse
                pattern = np.zeros((n,) * d)
                pattern.flat[rng.choice(n**d, size=d * (n - 1), replace=False)] = 1.0
            else:
                pattern = (rng.random((n,) * d) >= 0.1 + 0.75 * rng.random()).astype(float)
            t = _highs_max_t(pattern, P)
            assert scalability_check(Tensor(pattern), P) is (t is not None and t > 1e-10), i
            scalable += t is not None and t > 1e-10
            feasible_only += t is not None and t <= 1e-10
        assert scalable >= 20 and feasible_only >= 20


def _highs_max_t(pattern, P):
    """max t s.t. the support entries u meet the marginals and u_i >= t; None if infeasible."""
    support = np.nonzero(pattern.ravel() > 0)[0]
    multi = np.unravel_index(support, pattern.shape)
    ns = support.size
    A_eq = np.zeros((P.d * P.n, ns + 1))
    for j in range(P.d):
        A_eq[j * P.n + multi[j], np.arange(ns)] = 1.0
    A_ub = np.hstack([-np.eye(ns), np.ones((ns, 1))])  # t - u_i <= 0
    c = np.zeros(ns + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(ns), A_eq=A_eq, b_eq=P.p.ravel(),
                  bounds=(0, None), method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun
