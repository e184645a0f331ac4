"""Instance lists of the benchmark workloads and the ops that run them.

Every workload cycles over a fixed grid.  Each grid point has base
instances drawn from fixed base seeds 0, 1, ...; the run seed adds a
relative jitter of ``JITTER`` to every cost entry and marginal weight.  So
each seed gives different inputs while the work per grid point stays
comparable: greedy scaling step counts on fresh uniform costs are
heavy-tailed (log-sd about 0.6 at d=3, n<=10), so with fresh draws a run's
median would depend mostly on which instances its seed happened to draw.

The ops call the library through module attributes looked up at call
time (``transport.approx_tot``, ``cli.run``), which is what lets the traced
run wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import tensorot
from tensorot import MarginalFamily, Tensor, cli, lp, transport

JITTER = 1e-3
MARGINAL_TOL = 1e-9  # l1 distance a returned plan's marginals may have from the targets
EXACT_TOL = 1e-9  # |value - OPT| allowed for the exact oracle
CLI_TIMEOUT_S = 120
# ``python -m tensorot.cli`` runs nothing (the module has no __main__ guard),
# so CLI ops enter through the console-script function itself.
CLI_MAIN = "from tensorot.cli import main; main()"


@dataclass
class Problem:
    """One transport instance: a cost (or pattern) tensor and its marginals."""

    key: str
    C: Tensor
    P: MarginalFamily


@dataclass
class Op:
    """One closed-loop operation and what its correctness check needs."""

    name: str
    kind: str  # approx | exact | scalable | cli
    problem: Optional[Problem] = None
    delta: Optional[float] = None
    argv: list = field(default_factory=list)
    # for cli ops: the problem whose OPT bounds the printed value, if any
    ref_problem: Optional[Problem] = None
    cli_value: Optional[str] = None  # payload field compared against OPT


def _jittered(base_key: list, seed: int):
    """Base generator for a grid instance and jitter generator for the run."""
    return np.random.default_rng(base_key), np.random.default_rng([seed] + base_key)


def _marginals(base, jit, d, n) -> MarginalFamily:
    p = (0.2 + base.random((d, n))) * (1.0 + JITTER * jit.random((d, n)))
    return MarginalFamily(p / p.sum(axis=1, keepdims=True))


def uniform_problem(d: int, n: int, k: int, seed: int) -> Problem:
    """Costs uniform on [0, 1) and strictly positive random marginals."""
    base, jit = _jittered([d, n, k], seed)
    C = base.random((n,) * d) + JITTER * jit.random((n,) * d)
    return Problem(f"d={d},n={n},k={k}", Tensor(C), _marginals(base, jit, d, n))


def pattern_problem(d: int, n: int, k: int, seed: int, zeros: float = 0.3) -> Problem:
    """Nonnegative pattern tensor with about ``zeros`` of its cells set to 0.

    The seed jitters only the positive values.  The max-t LP behind
    ``scalability_check`` sees just the support and the marginals, and a
    1e-3 jitter of the marginals flips its pivot path between about 400 and
    1050 pivots, which would make a run's work depend on its seed.
    """
    base, jit = _jittered([d, n, k, 1], seed)
    A = (0.1 + base.random((n,) * d)) * (1.0 + JITTER * jit.random((n,) * d))
    A[base.random(A.shape) < zeros] = 0.0
    p = 0.2 + base.random((d, n))
    return Problem(f"pattern d={d},n={n},k={k}", Tensor(A),
                   MarginalFamily(p / p.sum(axis=1, keepdims=True)))


def ground_points(n: int, seed: int) -> np.ndarray:
    """Euclidean distances between n jittered points of the unit square."""
    base, jit = _jittered([n, 2], seed)
    x = base.random((n, 2)) + JITTER * jit.random((n, 2))
    return np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))


def approx_ops(shapes, deltas, bases, seed) -> list[Op]:
    ops = []
    for d, n in shapes:
        for k in range(bases):
            prob = uniform_problem(d, n, k, seed)
            for delta in deltas:
                ops.append(Op(f"approx {prob.key},delta={delta}", "approx",
                              problem=prob, delta=delta))
    return ops


def exact_ops(bases, seed) -> list[Op]:
    ops = []
    for d, n in ((3, 20), (4, 10)):
        for k in range(bases):
            prob = uniform_problem(d, n, k, seed)
            ops.append(Op(f"exact {prob.key}", "exact", problem=prob))
    for k in range(bases):
        prob = pattern_problem(3, 8, k, seed)
        ops.append(Op(f"scalable {prob.key}", "scalable", problem=prob))
    return ops


def _setdist_problem(C: Tensor, n: int, seed: int, tag: str):
    """Left and right lists of two measures each, stacked as one family."""
    base, jit = _jittered([n, 3], seed)
    P = _marginals(base, jit, 4, n)
    return Problem(f"{tag} n={n}", C, P)


def cli_ops(seed, workdir: Path) -> list[Op]:
    """The five CLI jobs, with their input files written into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)

    def save(name, obj):
        path = workdir / name
        if isinstance(obj, Tensor):
            tensorot.save_tensor(obj, path)
        else:
            tensorot.save_marginals(obj, path)
        return str(path)

    ops = []
    for n, lift in ((20, "sum"), (12, "matching")):
        cost = save(f"validate-{lift}-{n}.json",
                    tensorot.lift_ground_metric(ground_points(n, seed), 4, lift))
        ops.append(Op(f"cli validate-cost {lift} n={n}", "cli",
                      argv=["validate-cost", "--cost", cost]))
    for n, solver, extra in ((10, "exact", []), (8, "entropic", ["--delta", "0.1"])):
        prob = _setdist_problem(
            tensorot.lift_ground_metric(ground_points(n, seed), 4, "sum"), n, seed, solver)
        cost = save(f"setdist-{solver}-cost.json", prob.C)
        left = save(f"setdist-{solver}-left.json", MarginalFamily(prob.P.p[:2]))
        right = save(f"setdist-{solver}-right.json", MarginalFamily(prob.P.p[2:]))
        ops.append(Op(f"cli set-distance {solver} n={n}", "cli",
                      argv=["set-distance", "--cost", cost, "--left", left,
                            "--right", right, "--solver", solver] + extra,
                      ref_problem=prob, cli_value="distance",
                      delta=0.1 if solver == "entropic" else None))
    prob = uniform_problem(3, 20, 0, seed)
    cost = save("approx-cost.json", prob.C)
    marg = save("approx-marginals.json", prob.P)
    ops.append(Op("cli approx d=3,n=20", "cli",
                  argv=["approx", "--cost", cost, "--marginals", marg, "--delta", "0.1"],
                  ref_problem=prob, cli_value="value", delta=0.1))
    return ops


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The instance list one cycle of ``workload`` runs, in order.

    approx-deep and exact take 6 base instances per grid point, not 3: their
    op times spread widely between instances, and with 3 the run's median
    and tail fell on whichever one or two instances sat at that rank.
    """
    if workload == "approx-wide":
        # 2.5e5-3.3e5 cells and 7-20 steps: whole-tensor work dominates.
        # delta=0.01 is left out on purpose: approx-deep already shows the
        # underflow, and a wide 0.01 solve would have no step budget once fixed.
        return approx_ops(((3, 64), (4, 24), (5, 12)), (0.2, 0.05), 3, seed)
    if workload == "approx-deep":
        # <=1000 cells and 200-4000 steps: the fixed per-step cost dominates.
        # The delta=0.01 third fails today (exp(-lam*C) underflows) and stays in.
        return approx_ops(((3, 6), (3, 8), (3, 10)), (0.05, 0.02, 0.01), 6, seed)
    if workload == "exact":
        return exact_ops(6, seed)
    if workload == "cli-setdist":
        return cli_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    """What an op returned, reduced to what its check reads."""

    value: Optional[float] = None
    plan: Optional[Tensor] = None
    scalable: Optional[bool] = None
    exit_code: Optional[int] = None
    stdout: str = ""


def run_op(op: Op, mode: str) -> Outcome:
    """Execute one op; ``mode`` is ``process`` or ``inproc`` for CLI ops."""
    if op.kind == "approx":
        plan, cert = transport.approx_tot(op.problem.C, op.problem.P, op.delta)
        return Outcome(value=cert.value, plan=plan)
    if op.kind == "exact":
        sol = lp.solve_exact_tot(op.problem.C, op.problem.P)
        return Outcome(value=sol.value, plan=sol.plan)
    if op.kind == "scalable":
        return Outcome(scalable=lp.scalability_check(op.problem.C, op.problem.P))
    if mode == "process":
        # the environment puts this checkout's src/ first on PYTHONPATH
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN] + op.argv,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        return Outcome(exit_code=proc.returncode, stdout=proc.stdout)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(op.argv)
    return Outcome(exit_code=code, stdout=buf.getvalue())


def plan_errors(plan: Tensor, P: MarginalFamily) -> list[str]:
    """Feasibility defects of a returned plan: negative cells, marginal gaps."""
    errors = []
    low = float(plan.data.min())
    if low < 0:
        errors.append(f"negative plan entry {low!r}")
    d = plan.d
    for j in range(d):
        axes = tuple(ax for ax in range(d) if ax != j)
        gap = float(np.abs(plan.data.sum(axis=axes) - P.p[j]).sum())
        if gap > MARGINAL_TOL:
            errors.append(f"mode {j} marginal off by {gap:.3e} in l1")
    return errors


def _matches(got, want, rel=1e-12) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return abs(got - want) <= rel * max(1.0, abs(want))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_matches(got[k], want[k], rel) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_matches(g, w, rel) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def check(op: Op, out: Outcome, ref: dict) -> tuple[list[str], Optional[float]]:
    """Correctness defects of one op's outcome, and its gap (value-OPT)/delta.

    ``ref`` holds references computed without ``tensorot.lp``: ``opt`` from
    HiGHS, ``scalable`` from the max-t LP, ``payload`` from in-process
    library calls for CLI ops.
    """
    errors: list[str] = []
    gap = None
    if op.kind == "approx":
        errors += plan_errors(out.plan, op.problem.P)
        gap = (out.value - ref["opt"]) / op.delta
        if gap > 1.0:
            errors.append(f"value exceeds OPT by {gap:.3f} delta")
    elif op.kind == "exact":
        errors += plan_errors(out.plan, op.problem.P)
        if abs(out.value - ref["opt"]) > EXACT_TOL:
            errors.append(f"value {out.value!r} differs from OPT {ref['opt']!r}")
    elif op.kind == "scalable":
        if out.scalable != ref["scalable"]:
            errors.append(f"scalable={out.scalable} but the max-t LP says {ref['scalable']}")
    else:
        if out.exit_code != 0:
            errors.append(f"exit code {out.exit_code}")
        lines = out.stdout.splitlines()
        if len(lines) != 1:
            errors.append(f"stdout has {len(lines)} lines, expected one JSON object")
            return errors, gap
        try:
            payload = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            errors.append(f"stdout is not JSON ({exc})")
            return errors, gap
        if not _matches(payload, ref["payload"]):
            errors.append("stdout differs from the in-process library result")
        value = payload.get(op.cli_value) if isinstance(payload, dict) else None
        if op.cli_value is not None and isinstance(value, float):
            excess = value - ref["opt"]
            if op.delta is None:
                if abs(excess) > EXACT_TOL:
                    errors.append(f"{op.cli_value} differs from OPT by {excess!r}")
            else:
                gap = excess / op.delta
                if not -EXACT_TOL <= excess <= op.delta:
                    errors.append(f"{op.cli_value} is {gap:.3f} delta above OPT")
    return errors, gap


def timed(fn: Callable):
    """Call ``fn`` and return (result, exception, seconds)."""
    t0 = time.perf_counter()
    try:
        result, exc = fn(), None
    except Exception as err:  # an op failing is a measured outcome, not a crash
        result, exc = None, err
    return result, exc, time.perf_counter() - t0
