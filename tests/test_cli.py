"""Command-line front door: subcommands, JSON output, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from tensorot import MarginalFamily, Tensor, lift_ground_metric, save_marginals, save_tensor
from tensorot.cli import run

from conftest import package_env, random_cost, random_marginals


@pytest.fixture
def files(tmp_path, rng):
    C = random_cost(rng, 2, 3)
    P = random_marginals(rng, 2, 3)
    cost = tmp_path / "cost.json"
    marg = tmp_path / "marg.json"
    save_tensor(C, cost)
    save_marginals(P, marg)
    return tmp_path, cost, marg, C, P


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolveExact:
    def test_basic(self, files, capsys):
        _, cost, marg, *_ = files
        code, payload = run_json(capsys, ["solve-exact", "--cost", str(cost), "--marginals", str(marg)])
        assert code == 0
        assert set(payload) == {"value", "plan_file"}
        assert payload["plan_file"] is None

    def test_plan_out(self, files, capsys):
        tmp, cost, marg, C, P = files
        plan_path = tmp / "plan.json"
        code, payload = run_json(capsys, [
            "solve-exact", "--cost", str(cost), "--marginals", str(marg),
            "--plan-out", str(plan_path)])
        assert code == 0
        assert payload["plan_file"] == str(plan_path)
        from tensorot import inner, load_tensor

        plan = load_tensor(plan_path)
        assert inner(load_tensor(cost), plan) == pytest.approx(payload["value"], abs=1e-12)

    def test_order_one(self, tmp_path, capsys):
        save_tensor(Tensor([1.0, 2.0, 3.0]), tmp_path / "c.json")
        save_marginals(MarginalFamily([[0.2, 0.3, 0.5]]), tmp_path / "p.json")
        code, payload = run_json(capsys, [
            "solve-exact", "--cost", str(tmp_path / "c.json"),
            "--marginals", str(tmp_path / "p.json")])
        assert code == 0
        assert payload["value"] == pytest.approx(0.2 + 0.6 + 1.5, abs=1e-12)


class TestApprox:
    def test_schema_and_guarantee(self, files, capsys):
        _, cost, marg, C, P = files
        code, payload = run_json(capsys, [
            "approx", "--cost", str(cost), "--marginals", str(marg), "--delta", "0.1"])
        assert code == 0
        assert list(payload) == ["value", "bracket", "delta", "lambda",
                                 "epsilon", "k_stop", "movement_l1", "plan_file"]
        from tensorot import solve_exact_tot

        tau = solve_exact_tot(C, P).value
        assert payload["value"] <= tau + 0.1

    def test_deterministic_output(self, files, capsys):
        _, cost, marg, *_ = files
        argv = ["approx", "--cost", str(cost), "--marginals", str(marg), "--delta", "0.2"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_trace_file(self, files, capsys):
        tmp, cost, marg, *_ = files
        trace_path = tmp / "trace.jsonl"
        code, _ = run_json(capsys, [
            "approx", "--cost", str(cost), "--marginals", str(marg),
            "--delta", "0.2", "--trace", str(trace_path)])
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert json.loads(lines[-1]).keys() == {"k_stop", "bound", "eta", "mass"}


class TestScaleAndRound:
    def test_scale(self, tmp_path, rng, capsys):
        A = Tensor(0.5 + rng.random((3, 3)))
        P = random_marginals(rng, 2, 3)
        save_tensor(A, tmp_path / "a.json")
        save_marginals(P, tmp_path / "p.json")
        out = tmp_path / "scaled.json"
        code, payload = run_json(capsys, [
            "scale", "--tensor", str(tmp_path / "a.json"),
            "--marginals", str(tmp_path / "p.json"),
            "--epsilon", "0.05", "--plan-out", str(out)])
        assert code == 0
        assert payload["k_stop"] <= payload["bound"]
        assert payload["variant"] == "positive"
        from tensorot import load_tensor, marginal

        scaled = load_tensor(out)
        for j in range(2):
            assert np.abs(marginal(scaled, j) - P.p[j]).sum() < 0.1

    def test_scale_nonnegative_flag(self, tmp_path, rng, capsys):
        A = Tensor(np.array([[0.5, 0.5, 0.0], [0.0, 0.7, 0.3], [0.5, 0.0, 0.5]]))
        P = MarginalFamily(np.full((2, 3), 1 / 3))
        save_tensor(A, tmp_path / "a.json")
        save_marginals(P, tmp_path / "p.json")
        code, payload = run_json(capsys, [
            "scale", "--tensor", str(tmp_path / "a.json"),
            "--marginals", str(tmp_path / "p.json"),
            "--epsilon", "0.05", "--nonnegative"])
        assert code == 0
        assert payload["variant"] == "support"

    def test_round(self, tmp_path, rng, capsys):
        F = Tensor(0.1 + rng.random((3, 3)))
        F = Tensor(F.data / F.data.sum() * 1.1)
        P = random_marginals(rng, 2, 3)
        save_tensor(F, tmp_path / "f.json")
        save_marginals(P, tmp_path / "p.json")
        code, payload = run_json(capsys, [
            "round", "--tensor", str(tmp_path / "f.json"),
            "--marginals", str(tmp_path / "p.json")])
        assert code == 0
        assert payload["movement_l1"] <= payload["movement_bound"] + 1e-10


class TestSetDistanceCommand:
    def test_validate_and_distance(self, tmp_path, rng, capsys):
        delta = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        C = lift_ground_metric(delta, 4, mode="matching")
        save_tensor(C, tmp_path / "c.json")
        code, payload = run_json(capsys, ["validate-cost", "--cost", str(tmp_path / "c.json")])
        assert code == 0
        assert payload["bisymmetric"] is True
        assert payload["weak_bisymmetric"] is True
        # matching costs vanish on equal multisets: the strict matricization
        # check fails there while the multiset-style one certifies it
        assert payload["distance_matrix"] is False
        assert payload["violation"] == "nonpositive off-diagonal at (1, 3): 0.0"
        assert payload["multiset_distance"] is True

        left = random_marginals(rng, 2, 3)
        right = random_marginals(rng, 2, 3)
        save_marginals(left, tmp_path / "l.json")
        save_marginals(right, tmp_path / "r.json")
        code, payload = run_json(capsys, [
            "set-distance", "--cost", str(tmp_path / "c.json"),
            "--left", str(tmp_path / "l.json"), "--right", str(tmp_path / "r.json"),
            "--solver", "exact"])
        assert code == 0
        assert payload["distance"] >= 0.0
        assert sorted(payload["best_permutation"]) == [0, 1]
        assert payload["flags"]["bisymmetric"] is True

    def test_entropic_solver(self, tmp_path, rng, capsys):
        delta = np.array([[0.0, 1.0], [1.0, 0.0]])
        C = lift_ground_metric(delta, 2, mode="sum")
        save_tensor(C, tmp_path / "c.json")
        save_marginals(random_marginals(rng, 1, 2), tmp_path / "l.json")
        save_marginals(random_marginals(rng, 1, 2), tmp_path / "r.json")
        code, payload = run_json(capsys, [
            "set-distance", "--cost", str(tmp_path / "c.json"),
            "--left", str(tmp_path / "l.json"), "--right", str(tmp_path / "r.json"),
            "--solver", "entropic", "--delta", "0.1"])
        assert code == 0


class TestScalable:
    def test_true_and_false(self, tmp_path, rng, capsys):
        P = MarginalFamily([[0.5, 0.5], [0.5, 0.5]])
        save_marginals(P, tmp_path / "p.json")
        save_tensor(Tensor([[1.0, 0.0], [0.0, 1.0]]), tmp_path / "diag.json")
        code, payload = run_json(capsys, [
            "scalable", "--tensor", str(tmp_path / "diag.json"),
            "--marginals", str(tmp_path / "p.json")])
        assert code == 0 and payload["scalable"] is True

        save_tensor(Tensor([[1.0, 1.0], [0.0, 0.0]]), tmp_path / "row.json")
        code, payload = run_json(capsys, [
            "scalable", "--tensor", str(tmp_path / "row.json"),
            "--marginals", str(tmp_path / "p.json")])
        assert code == 0 and payload["scalable"] is False


class TestExitCodes:
    def test_malformed_file_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 2, "n": 2}')
        good = tmp_path / "p.json"
        save_marginals(MarginalFamily([[0.5, 0.5], [0.5, 0.5]]), good)
        code = run(["solve-exact", "--cost", str(bad), "--marginals", str(good)])
        assert code == 1
        assert "data" in capsys.readouterr().err

    def test_missing_file_is_one(self, tmp_path, capsys):
        good = tmp_path / "p.json"
        save_marginals(MarginalFamily([[0.5, 0.5], [0.5, 0.5]]), good)
        code = run(["solve-exact", "--cost", str(tmp_path / "nope.json"),
                    "--marginals", str(good)])
        assert code == 1

    def test_contract_violation_is_two(self, tmp_path, rng, capsys):
        # zeros in the tensor break the positive-variant contract
        save_tensor(Tensor([[1.0, 0.0], [0.0, 1.0]]), tmp_path / "a.json")
        save_marginals(MarginalFamily([[0.5, 0.5], [0.5, 0.5]]), tmp_path / "p.json")
        code = run(["scale", "--tensor", str(tmp_path / "a.json"),
                    "--marginals", str(tmp_path / "p.json"), "--epsilon", "0.1"])
        assert code == 2
        assert "contract" in capsys.readouterr().err

    def test_nonconvergence_is_three(self, tmp_path, rng, capsys):
        # a diagonal pattern cannot carry asymmetric marginals, so the
        # stopping rule is never reached
        save_tensor(Tensor([[1.0, 0.0], [0.0, 1.0]]), tmp_path / "a.json")
        save_marginals(MarginalFamily([[0.9, 0.1], [0.1, 0.9]]), tmp_path / "p.json")
        code = run(["scale", "--tensor", str(tmp_path / "a.json"),
                    "--marginals", str(tmp_path / "p.json"),
                    "--epsilon", "0.1", "--nonnegative"])
        assert code == 3


class TestProcess:
    def test_module_entry_point_matches_run(self, files, capsys):
        _, cost, marg, *_ = files
        argv = ["approx", "--cost", str(cost), "--marginals", str(marg), "--delta", "0.2"]
        assert run(argv) == 0
        expected = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "tensorot.cli", *argv],
                              capture_output=True, text=True, env=package_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected

    def test_import_loads_no_scipy(self):
        code = ("import sys, tensorot\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=package_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_exact_path_loads_no_scipy(self, files):
        _, cost, marg, *_ = files
        code = ("import sys\n"
                "from tensorot import cli, load_marginals, load_tensor, lp\n"
                f"C, P = load_tensor({str(cost)!r}), load_marginals({str(marg)!r})\n"
                "lp.solve_exact_tot(C, P)\n"
                "lp.scalability_check(C, P)\n"
                f"cli.run(['scalable', '--tensor', {str(cost)!r}, '--marginals', {str(marg)!r}])\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=package_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ['{"scalable": true}', "[]"]
