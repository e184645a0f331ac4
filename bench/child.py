"""Benchmark subprocesses: set-up probe, reference solver and workload loop.

    python3 bench/child.py setup     --workload W --seed S --workdir DIR
    python3 bench/child.py reference --workload W --seed S --workdir DIR --out FILE
    python3 bench/child.py run       --workload W --seed S --workdir DIR --out FILE
                                     --refs FILE --seconds T --trace 0|1

``setup`` and ``run`` print ``ready`` once tensorot is imported and the
inputs are built; the parent times set-up up to that line.  ``run`` then
runs the workload as a closed loop with one client: ops back to back, in
whole cycles over the instance list.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import grid  # noqa: E402  (needs the checkout's src on the path)


# Seconds one plain cycle took at the seed commit (2 vCPUs).  A run makes
# round(seconds / (CYCLE_S * passes)) cycles, so every run of a workload does
# the same work, on every commit: the tail percentile then always falls on
# the same rank, and a faster commit is not measured over more samples.
CYCLE_S = {"approx-wide": 6.7, "approx-deep": 3.6, "exact": 7.2, "cli-setdist": 6.5}
# A commit this many times slower than the seed stops early, to end in time.
SLOWDOWN_CAP = 4


def _passes(workload: str, trace: bool) -> tuple[str, ...]:
    """Passes per cycle: ``plain`` is the measured op (CLI ops in a fresh
    process); a traced run adds a ``traced`` pass and, for CLI ops, an
    untraced in-process pass that the traced one is compared with."""
    if not trace:
        return ("plain",)
    return ("plain", "inproc", "traced") if workload == "cli-setdist" else ("plain", "traced")


def run_loop(ops, refs, workload, seconds, trace) -> dict:
    from spans import Tracer

    tracer = Tracer()
    records, traced_cycles = [], []
    passes = _passes(workload, trace)
    planned = max(1, round(seconds / (CYCLE_S[workload] * len(passes))))
    busy = 0.0
    cycles = 0
    while cycles < planned and busy <= SLOWDOWN_CAP * seconds:
        for name in passes:
            mode = "process" if name == "plain" else "inproc"
            traced = name == "traced"
            if traced:
                tracer.install()
                traced_cycles.append([])
            try:
                for op, ref in zip(ops, refs):
                    op_id = len(records)
                    if traced:
                        tracer.op = op_id
                        traced_cycles[-1].append(op_id)
                        root = tracer.begin("op")
                    out, exc, secs = grid.timed(lambda: grid.run_op(op, mode))
                    if traced:
                        tracer.end(root)
                    busy += secs
                    rec = {"cycle": cycles, "pass": name, "op": op.name, "ms": 1e3 * secs}
                    if exc is not None:
                        rec.update(status="raised", error=f"{type(exc).__name__}: {exc}"[:240])
                    else:
                        errors, gap = grid.check(op, out, ref)
                        rec.update(status="wrong" if errors else "ok", gap=gap)
                        if errors:
                            rec["error"] = "; ".join(errors)[:240]
                    records.append(rec)
            finally:
                if traced:
                    tracer.uninstall()
        cycles += 1
    return {
        "records": records,
        "cycles": cycles,
        "planned_cycles": planned,
        "layers": [tracer.layers(set(ids)) for ids in traced_cycles],
        "unaccounted": tracer.unaccounted()[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "reference", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--refs", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = grid.build(args.workload, args.seed, args.workdir)
    if args.role == "reference":
        import reference

        args.out.write_text(json.dumps(reference.references(ops)))
        return 0
    print("ready", flush=True)
    if args.role == "setup":
        return 0
    # Nothing else may reach the parent's pipe, which is read only up to "ready".
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())

    import numpy
    import scipy

    refs = json.loads(args.refs.read_text())
    result = run_loop(ops, refs, args.workload, args.seconds, bool(args.trace))
    result.update(
        ops_per_cycle=len(ops),
        maxrss_kb={who: resource.getrusage(flag).ru_maxrss for who, flag in
                   (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN))},
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
        tensorot=grid.tensorot.__file__,
    )
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
