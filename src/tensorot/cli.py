"""Batch command line: load tensors and marginals, solve, emit JSON.

One process handles one job.  Results go to stdout as a single JSON
object with a fixed field order, so identical inputs produce
byte-identical output; diagnostics go to stderr.  Exit codes: 0 success,
1 malformed input file, 2 contract violation, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ContractViolation, NonConvergenceError
from .io import FileFormatError, load_marginals, load_tensor, save_tensor
from .lp import solve_exact_tot, scalability_check
from .rounding import round_to_polytope
from .scaling import SinkhornConfig, sinkhorn_scale
from .setdist import cost_profile, set_distance
from .tensor import _fsum, all_marginals, inner, l1_distance
from .transport import approx_tot, entropic_bracket, entropic_tot

__all__ = ["run", "main"]


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload))
    sys.stdout.write("\n")


def _save_plan(plan, path):
    if path is None:
        return None
    save_tensor(plan, path)
    return str(path)


def _cmd_solve_exact(args) -> int:
    C = load_tensor(args.cost)
    P = load_marginals(args.marginals)
    sol = solve_exact_tot(C, P)
    _emit({"value": sol.value, "plan_file": _save_plan(sol.plan, args.plan_out)})
    return 0


def _cmd_solve_entropic(args) -> int:
    C = load_tensor(args.cost)
    P = load_marginals(args.marginals)
    res = entropic_tot(C, P, args.lam, args.epsilon)
    if args.trace:
        res.trace.write_jsonl(args.trace)
    low, high = entropic_bracket(res.value, args.lam, C.n, C.d)
    _emit({
        "value": res.cost,
        "bracket": [low, high],
        "delta": None,
        "lambda": args.lam,
        "epsilon": args.epsilon,
        "k_stop": res.trace.k_stop,
        "movement_l1": None,
        "plan_file": _save_plan(res.plan, args.plan_out),
    })
    return 0


def _cmd_approx(args) -> int:
    C = load_tensor(args.cost)
    P = load_marginals(args.marginals)
    plan, cert = approx_tot(C, P, args.delta, lam=args.lam, epsilon=args.epsilon,
                            trace_out=args.trace)
    payload = cert.as_dict()
    payload["plan_file"] = _save_plan(plan, args.plan_out)
    _emit(payload)
    return 0


def _cmd_scale(args) -> int:
    A = load_tensor(args.tensor)
    P = load_marginals(args.marginals)
    # zeros need --nonnegative; the scaling itself follows the tensor
    if not (args.nonnegative or A.data.min() > 0):
        raise ContractViolation("scale needs a strictly positive tensor; "
                                "pass --nonnegative for a tensor with zeros")
    scaled, _, trace = sinkhorn_scale(A, P, SinkhornConfig(epsilon=args.epsilon))
    if args.trace:
        trace.write_jsonl(args.trace)
    _emit({
        "k_stop": trace.k_stop,
        "bound": trace.bound,
        "eta": trace.eta,
        "mass": trace.mass,
        "epsilon": args.epsilon,
        "variant": "support" if args.nonnegative else "positive",
        "plan_file": _save_plan(scaled, args.plan_out),
    })
    return 0


def _cmd_round(args) -> int:
    F = load_tensor(args.tensor)
    P = load_marginals(args.marginals)
    plan = round_to_polytope(F, P)
    gaps = np.abs(all_marginals(F) - P.p).sum(axis=1)
    _emit({
        "movement_l1": l1_distance(plan, F),
        "movement_bound": 2.0 * _fsum(gaps),
        "plan_file": _save_plan(plan, args.plan_out),
    })
    return 0


def _cmd_set_distance(args) -> int:
    C = load_tensor(args.cost)
    left = load_marginals(args.left)
    right = load_marginals(args.right)
    result = set_distance(C, left.p, right.p, solver=args.solver, delta=args.delta)
    _emit({
        "distance": result.distance,
        "best_permutation": list(result.best_permutation),
        "flags": {
            "distance_matrix": result.profile.distance_matrix,
            "multiset_distance": result.profile.multiset_distance,
            "bisymmetric": result.profile.bisymmetric,
            "weak_bisymmetric": result.profile.weak_bisymmetric,
            "multisets_equal": result.multisets_equal,
        },
    })
    return 0


def _cmd_validate_cost(args) -> int:
    C = load_tensor(args.cost)
    profile = cost_profile(C)
    _emit({
        "bisymmetric": profile.bisymmetric,
        "weak_bisymmetric": profile.weak_bisymmetric,
        "distance_matrix": profile.distance_matrix,
        "multiset_distance": profile.multiset_distance,
        "violation": profile.violation,
    })
    return 0


def _cmd_scalable(args) -> int:
    A = load_tensor(args.tensor)
    P = load_marginals(args.marginals)
    _emit({"scalable": scalability_check(A, P)})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorot",
        description="Multi-marginal discrete optimal transport toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **flags):
        cmd = sub.add_parser(name)
        for flag, kwargs in flags.items():
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(handler=handler)
        return cmd

    add("solve-exact", _cmd_solve_exact,
        **{"--cost": dict(required=True), "--marginals": dict(required=True),
           "--plan-out": dict(default=None)})
    add("solve-entropic", _cmd_solve_entropic,
        **{"--cost": dict(required=True), "--marginals": dict(required=True),
           "--lambda": dict(required=True, type=float, dest="lam"),
           "--epsilon": dict(required=True, type=float),
           "--plan-out": dict(default=None), "--trace": dict(default=None)})
    add("approx", _cmd_approx,
        **{"--cost": dict(required=True), "--marginals": dict(required=True),
           "--delta": dict(required=True, type=float),
           "--lambda": dict(default=None, type=float, dest="lam"),
           "--epsilon": dict(default=None, type=float),
           "--plan-out": dict(default=None), "--trace": dict(default=None)})
    add("scale", _cmd_scale,
        **{"--tensor": dict(required=True), "--marginals": dict(required=True),
           "--epsilon": dict(required=True, type=float),
           "--nonnegative": dict(action="store_true"),
           "--plan-out": dict(default=None), "--trace": dict(default=None)})
    add("round", _cmd_round,
        **{"--tensor": dict(required=True), "--marginals": dict(required=True),
           "--plan-out": dict(default=None)})
    add("set-distance", _cmd_set_distance,
        **{"--cost": dict(required=True), "--left": dict(required=True),
           "--right": dict(required=True),
           "--solver": dict(default="exact", choices=("exact", "entropic")),
           "--delta": dict(default=None, type=float)})
    add("validate-cost", _cmd_validate_cost, **{"--cost": dict(required=True)})
    add("scalable", _cmd_scalable,
        **{"--tensor": dict(required=True), "--marginals": dict(required=True)})
    return parser


def run(argv=None) -> int:
    """Parse, dispatch, and map failures onto the documented exit codes."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except (ContractViolation, ValueError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
