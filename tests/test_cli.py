"""Command-line front door: subcommands, JSON output, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from tensorot import MarginalFamily, Tensor, lift_ground_metric, save_marginals, save_tensor
from tensorot.cli import run

from conftest import overflowing_kernel, package_env, random_cost, random_marginals


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

    def test_nonnegative_flag_on_a_positive_tensor(self, tmp_path, rng, capsys):
        # the flag admits zeros; on a positive tensor it changes only "variant"
        save_tensor(Tensor(0.5 + rng.random((3, 3))), tmp_path / "a.json")
        save_marginals(random_marginals(rng, 2, 3), tmp_path / "p.json")
        argv = ["scale", "--tensor", str(tmp_path / "a.json"),
                "--marginals", str(tmp_path / "p.json"), "--epsilon", "0.01"]
        _, plain = run_json(capsys, argv)
        code, flagged = run_json(capsys, argv + ["--nonnegative"])
        assert code == 0
        assert (plain.pop("variant"), flagged.pop("variant")) == ("positive", "support")
        assert plain == flagged

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

    _WRONG_TYPES = {
        "float-d": ('{"d": 2.7, "n": 2, "data": [1, 2, 3, 4]}', None),
        "string-d": ('{"d": "2", "n": 2, "data": [1, 2, 3, 4]}', None),
        "bool-n": ('{"d": 2, "n": true, "data": [1, 2, 3, 4]}', None),
        "string-data": ('{"d": 2, "n": 2, "data": ["1", "2", "3", "4"]}', None),
        "bool-data": ('{"d": 2, "n": 2, "data": [true, false, true, true]}', None),
        "one-bool-data": ('{"d": 2, "n": 2, "data": [1.0, 2.0, 3.0, false]}', None),
        "nested-data": ('{"d": 2, "n": 2, "data": [[1.0, 2.0], [3.0, 4.0]]}', None),
        "int-past-float-data": ('{"d": 1, "n": 2, "data": [1, 1%s]}' % ("0" * 400), None),
        "string-weights": (None, '{"p": [["0.5", "0.5"], [0.5, 0.5]]}'),
        "bool-weight": (None, '{"p": [[0.5, 0.5], [true, 0.5]]}'),
        "string-p": (None, '{"p": "0.5"}'),
    }

    @pytest.mark.parametrize("case", list(_WRONG_TYPES))
    def test_fields_of_the_wrong_type_are_one(self, tmp_path, capsys, case):
        tensor, marginals = self._WRONG_TYPES[case]
        (tmp_path / "a.json").write_text(tensor or '{"d": 2, "n": 2, "data": [1, 2, 3, 4.5]}')
        (tmp_path / "p.json").write_text(marginals or '{"p": [[0.5, 0.5], [0.5, 0.5]]}')
        code = run(["round", "--tensor", str(tmp_path / "a.json"),
                    "--marginals", str(tmp_path / "p.json")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "input error" in captured.err

    def test_well_typed_fields_are_zero(self, tmp_path, capsys):
        # JSON integers are numbers too, and one vector is a family of one
        (tmp_path / "a.json").write_text('{"d": 1, "n": 2, "data": [1, 2.5]}')
        (tmp_path / "p.json").write_text('{"p": [1, 3]}')
        code = run(["round", "--tensor", str(tmp_path / "a.json"),
                    "--marginals", str(tmp_path / "p.json")])
        assert code == 0

    def test_missing_file_is_one(self, tmp_path, capsys):
        good = tmp_path / "p.json"
        save_marginals(MarginalFamily([[0.5, 0.5], [0.5, 0.5]]), good)
        code = run(["solve-exact", "--cost", str(tmp_path / "nope.json"),
                    "--marginals", str(good)])
        assert code == 1

    def test_contract_violation_is_two(self, tmp_path, rng, capsys):
        # scale admits zeros only with --nonnegative
        save_tensor(Tensor([[1.0, 0.0], [0.0, 1.0]]), tmp_path / "a.json")
        save_marginals(MarginalFamily([[0.5, 0.5], [0.5, 0.5]]), tmp_path / "p.json")
        code = run(["scale", "--tensor", str(tmp_path / "a.json"),
                    "--marginals", str(tmp_path / "p.json"), "--epsilon", "0.1"])
        assert code == 2
        assert "contract" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["[[NaN, 0.5], [0.5, 0.5]]", "[[-0.5, 1.5], [0.5, 0.5]]",
                                         "[[0.0, 1.0], [0.5, 0.5]]", "[[0.5, 0.5], [1.0, 1.0]]",
                                         "[]"])
    def test_marginals_breaking_the_contract_are_two(self, tmp_path, capsys, weights):
        # well-typed weights that no MarginalFamily holds: a NaN, a negative
        # or zero weight, unequal masses, no weights at all
        save_tensor(Tensor([[0.0, 1.0], [1.0, 0.0]]), tmp_path / "c.json")
        (tmp_path / "p.json").write_text(f'{{"p": {weights}}}')
        code = run(["solve-exact", "--cost", str(tmp_path / "c.json"),
                    "--marginals", str(tmp_path / "p.json")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "contract" in captured.err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_cost_is_two(self, tmp_path, capsys, bad):
        # the JSON loader accepts these literals; the solver must refuse them
        (tmp_path / "c.json").write_text(f'{{"d": 2, "n": 2, "data": [0.0, {bad}, 1.0, 0.0]}}')
        save_marginals(MarginalFamily([[0.5, 0.5], [0.5, 0.5]]), tmp_path / "p.json")
        code = run(["solve-exact", "--cost", str(tmp_path / "c.json"),
                    "--marginals", str(tmp_path / "p.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "finite" in captured.err

    def test_nonconvergence_is_three(self, tmp_path, rng, capsys):
        # a diagonal pattern cannot carry asymmetric marginals, so the
        # stopping rule is never reached
        save_tensor(Tensor([[1.0, 0.0], [0.0, 1.0]]), tmp_path / "a.json")
        save_marginals(MarginalFamily([[0.9, 0.1], [0.1, 0.9]]), tmp_path / "p.json")
        code = run(["scale", "--tensor", str(tmp_path / "a.json"),
                    "--marginals", str(tmp_path / "p.json"),
                    "--epsilon", "0.1", "--nonnegative"])
        assert code == 3

    def test_overflowing_marginals_are_three(self, tmp_path, capsys):
        A, P = overflowing_kernel()
        save_tensor(A, tmp_path / "a.json")
        save_marginals(P, tmp_path / "p.json")
        code = run(["scale", "--tensor", str(tmp_path / "a.json"),
                    "--marginals", str(tmp_path / "p.json"),
                    "--epsilon", "0.01", "--nonnegative"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "not finite" in captured.err


_FINITE = [0.2, 0.7, 0.5, 0.7, 0.1, 0.4, 0.5, 0.4, 0.3]  # symmetric, d=2, n=3
_INPUTS = {
    "finite": _FINITE,
    "nan": _FINITE[:1] + ["NaN"] + _FINITE[2:],
    "infinity": _FINITE[:1] + ["Infinity"] + _FINITE[2:],
    "negative": _FINITE[:1] + [-1.0] + _FINITE[2:],
    "all-zero": [0.0] * 9,
    "1e308": [1e308] * 9,
    # finite, but max - min is past the float range
    "both-signs": [-1e308, 1e308, 1e308, 1e308, -1e308, 1e308, 1e308, 1e308, -1e308],
}
_FORMS = {
    "solve-exact": ["solve-exact", "--cost", "{t}", "--marginals", "{p}"],
    "solve-entropic": ["solve-entropic", "--cost", "{t}", "--marginals", "{p}",
                       "--lambda", "5", "--epsilon", "0.1"],
    "approx": ["approx", "--cost", "{t}", "--marginals", "{p}", "--delta", "0.1"],
    "scale": ["scale", "--tensor", "{t}", "--marginals", "{p}", "--epsilon", "0.1"],
    "scale-nonnegative": ["scale", "--tensor", "{t}", "--marginals", "{p}",
                          "--epsilon", "0.1", "--nonnegative"],
    "round": ["round", "--tensor", "{t}", "--marginals", "{p}"],
    "set-distance": ["set-distance", "--cost", "{t}", "--left", "{l}", "--right", "{r}"],
    "set-distance-entropic": ["set-distance", "--cost", "{t}", "--left", "{l}",
                              "--right", "{r}", "--solver", "entropic", "--delta", "0.1"],
    "validate-cost": ["validate-cost", "--cost", "{t}"],
    "scalable": ["scalable", "--tensor", "{t}", "--marginals", "{p}"],
}
# 1e308 entries: a mass overflows where one is needed; costs stay summable
_HUGE_CODES = {"scale": 2, "scale-nonnegative": 2, "round": 2, "solve-exact": 0,
               "approx": 0, "set-distance": 0, "validate-cost": 0}
# a cost spread past the float range is refused where the kernel needs it
_BOTH_SIGNS_CODES = {"solve-exact": 0, "solve-entropic": 2, "approx": 2, "set-distance": 0,
                     "set-distance-entropic": 2}


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


class TestExitCodeContract:
    """Every subcommand maps every input onto 0/1/2/3 and prints strict JSON."""

    def run_form(self, tmp_path, capsys, argv, data):
        n = math.isqrt(len(data))
        (tmp_path / "t.json").write_text(
            '{"d": 2, "n": %d, "data": [%s]}' % (n, ", ".join(str(v) for v in data)))
        save_marginals(MarginalFamily([[0.2, 0.3, 0.5], [0.3, 0.3, 0.4]]), tmp_path / "p.json")
        save_marginals(MarginalFamily([[0.2, 0.3, 0.5]]), tmp_path / "l.json")
        save_marginals(MarginalFamily([[0.3, 0.3, 0.4]]), tmp_path / "r.json")
        paths = {key: str(tmp_path / f"{key}.json") for key in "tplr"}
        code = run([arg.format(**paths) for arg in argv])
        out = capsys.readouterr().out
        if out:
            _strict_json(out)
        return code, out

    @pytest.mark.parametrize("name", list(_INPUTS))
    @pytest.mark.parametrize("form", list(_FORMS))
    def test_every_form_and_input(self, tmp_path, capsys, form, name):
        code, out = self.run_form(tmp_path, capsys, _FORMS[form], _INPUTS[name])
        assert code in (0, 1, 2, 3)
        if name in ("nan", "infinity"):
            assert (code, out) == (2, "")
        if name == "1e308" and form in _HUGE_CODES:
            assert code == _HUGE_CODES[form]
        if name == "both-signs" and form in _BOTH_SIGNS_CODES:
            assert code == _BOTH_SIGNS_CODES[form]
            assert (out == "") == (code == 2)
        if name == "finite":
            assert code == 0

    def test_nan_cost_is_no_distance_matrix(self, tmp_path, capsys):
        code, out = self.run_form(tmp_path, capsys, _FORMS["validate-cost"],
                                  [0.0, "NaN", 1.0, 0.0])
        assert (code, out) == (2, "")

    def test_exact_value_of_a_cost_spread_past_the_float_range(self, tmp_path, capsys):
        # the diagonal carries at most 0.9 of the mass: 0.9 * -1e308 + 0.1 * 1e308
        code, out = self.run_form(tmp_path, capsys, _FORMS["solve-exact"], _INPUTS["both-signs"])
        assert code == 0
        assert _strict_json(out)["value"] == pytest.approx(-0.8e308, rel=1e-12)

    def test_overflowing_kernel_is_two(self, tmp_path, capsys):
        # exp(-1000 * -1) is past the float range
        argv = [("1000" if arg == "5" else arg) for arg in _FORMS["solve-entropic"]]
        code, out = self.run_form(tmp_path, capsys, argv, _INPUTS["negative"])
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("form, epsilon", [
        ("scale", "1e-200"), ("scale", "1e-160"), ("scale-nonnegative", "1e-200"),
        ("solve-entropic", "1e-200"), ("approx", "1e-200"),
        ("scale", "1e-16"), ("scale", "1e-150"), ("approx", "1e-16")])
    def test_epsilon_without_a_finite_bound_is_two(self, tmp_path, capsys, form, epsilon):
        # epsilon**2 underflows (1e-200), the bound overflows (1e-160), or
        # the l1 residual cannot fall below epsilon in float arithmetic;
        # the same forms exit 0 at their usual epsilon on this input
        argv = list(_FORMS[form])
        if "--epsilon" in argv:
            argv[argv.index("--epsilon") + 1] = epsilon
        else:
            argv += ["--epsilon", epsilon]
        code, out = self.run_form(tmp_path, capsys, argv, _FINITE)
        assert (code, out) == (2, "")


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

    def test_import_loads_no_submodule(self):
        code = ("import sys, tensorot\n"
                "print(sorted(m for m in sys.modules if m.startswith('tensorot')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=package_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['tensorot']"

    @pytest.mark.parametrize("argv, absent", [
        (["approx", "--cost", "{c}", "--marginals", "{m}", "--delta", "0.2"],
         {"pm", "lp", "setdist"}),
        (["validate-cost", "--cost", "{c}"],
         {"pm", "lp", "transport", "scaling", "rounding"}),
        (["solve-exact", "--cost", "{c}", "--marginals", "{m}"],
         {"pm", "transport", "setdist"}),
        (["set-distance", "--cost", "{s}", "--left", "{p}", "--right", "{p}"],
         {"pm", "transport", "scaling", "rounding"}),
        (["set-distance", "--cost", "{s}", "--left", "{p}", "--right", "{p}",
          "--solver", "entropic", "--delta", "0.1"],
         {"pm", "lp"}),
    ], ids=["approx", "validate-cost", "solve-exact", "set-distance-exact",
            "set-distance-entropic"])
    def test_subcommand_loads_only_what_it_runs(self, files, argv, absent):
        tmp, cost, marg, *_ = files
        metric, measure = tmp / "metric.json", tmp / "measure.json"
        save_tensor(lift_ground_metric([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], 2),
                    metric)
        save_marginals(MarginalFamily([[0.2, 0.3, 0.5]]), measure)
        argv = [arg.format(c=cost, m=marg, s=metric, p=measure) for arg in argv]
        code = ("import json, sys\n"
                "from tensorot import cli\n"
                f"code = cli.run({argv!r})\n"
                "print(code, json.dumps(sorted(m.removeprefix('tensorot.') for m in sys.modules\n"
                "                              if m.startswith('tensorot.'))))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=package_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        exit_code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
        assert exit_code == "0"
        loaded = set(json.loads(loaded))
        assert {"cli", "errors", "io", "tensor"} <= loaded
        assert not loaded & absent, loaded

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
