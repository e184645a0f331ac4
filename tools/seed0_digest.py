"""Print one JSON object of digests of the benchmark's outputs at seed 0.

The library is the ``tensorot`` found on ``PYTHONPATH``; the instance lists
come from this checkout's ``bench/grid.py``, which is only read.  Run it
once per tree and compare the two files byte for byte::

    PYTHONPATH=/path/to/other/src python tools/seed0_digest.py > other.json
    PYTHONPATH=src python tools/seed0_digest.py > this.json
    cmp other.json this.json

It records, per op or job:

* ``approx-wide`` and ``approx-deep``: sha256 of the plan bytes and of the
  JSONL trace, ``json.dumps(cert.as_dict())``, ``stop``,
  ``theoretical_error.hex()`` and ``repr(eta)``, or the exception class
  and message;
* ``exact``: sha256 of the plan and dual bytes, ``value.hex()`` and the
  iteration count, and each scalability decision;
* ``sinkhorn_scale`` run directly at ``epsilon=0.01, max_iter=5000`` on the
  ``exact`` scalability patterns with their marginals, which have zeros and
  so take the support branch of each step, on block supports at d = 2..4,
  whose residuals also lose their degenerate directions, and on the
  ``approx-deep`` kernels ``exp(-lam (C - min C))`` that do not underflow:
  sha256 of the iterate and exponent bytes and of the JSONL trace,
  ``stop``, ``rematerializations`` and ``drift.hex()``, or the exception
  class and message with the sha256 of the trace it carries;
* ``cli-setdist``: sha256 of every input file, and the exit code, stdout
  and stderr of the job run as its own process, as the benchmark runs it;
* each ``demos/*.py``: exit code and stdout.

The temporary directory's path is replaced by ``<work>`` in captured text.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import grid  # noqa: E402
import numpy as np  # noqa: E402
from tensorot import (ContractViolation, MarginalFamily, Tensor, lp, scaling, tensor,  # noqa: E402
                      transport)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def approx_entries(work: Path) -> dict:
    out = {}
    trace = work / "trace.jsonl"
    for workload in ("approx-wide", "approx-deep"):
        for op in grid.build(workload, 0, work):
            key = f"{workload} {op.name}"
            trace.unlink(missing_ok=True)
            try:
                plan, cert = transport.approx_tot(op.problem.C, op.problem.P, op.delta,
                                                  trace_out=str(trace))
            except Exception as exc:  # the failure itself is the output recorded
                out[key] = [type(exc).__name__, str(exc)]
                continue
            out[key] = [sha(plan.data.tobytes()), json.dumps(cert.as_dict()),
                        sha(trace.read_bytes()), cert.stop, cert.theoretical_error.hex(),
                        repr(cert.eta)]
    return out


def exact_entries(work: Path) -> dict:
    out = {}
    for op in grid.build("exact", 0, work):
        key = f"exact {op.name}"
        if op.kind == "exact":
            sol = lp.solve_exact_tot(op.problem.C, op.problem.P)
            duals = None if sol.duals is None else sha(sol.duals.tobytes())
            out[key] = [sha(sol.plan.data.tobytes()), sol.value.hex(), sol.iterations, duals]
        else:
            out[key] = lp.scalability_check(op.problem.C, op.problem.P)
    return out


def scale_entry(A, P, trace_file: Path) -> list:
    """Digests of one ``sinkhorn_scale`` run at epsilon 0.01, or of its failure."""
    try:
        iterate, X, trace = scaling.sinkhorn_scale(
            A, P, scaling.SinkhornConfig(epsilon=0.01, max_iter=5000))
    except Exception as exc:  # the failure itself is the output recorded
        trace = getattr(exc, "trace", None)
        if trace is not None:
            trace.write_jsonl(trace_file)
        return [type(exc).__name__, str(exc),
                None if trace is None else sha(trace_file.read_bytes())]
    trace.write_jsonl(trace_file)
    return [sha(iterate.data.tobytes()), sha(X.tobytes()), sha(trace_file.read_bytes()),
            trace.stop, trace.rematerializations, trace.drift.hex()]


def scale_entries(work: Path) -> dict:
    out = {}
    trace = work / "scale.jsonl"
    for op in grid.build("exact", 0, work):
        if op.kind == "scalable":
            out[f"scale {op.name}"] = scale_entry(op.problem.C, op.problem.P, trace)
    for d in (2, 3, 4):
        # a cell is kept when its indices all lie in the first half or all
        # in the second; the marginals come from another tensor on it
        rng = np.random.default_rng([d, 6])
        mask = np.zeros((6,) * d, dtype=bool)
        mask[(slice(0, 3),) * d] = mask[(slice(3, 6),) * d] = True
        A, B = (np.where(mask, 0.5 + rng.random(mask.shape), 0.0) for _ in range(2))
        P = MarginalFamily(tensor.all_marginals(Tensor(B / B.sum())))
        out[f"scale block d={d},n=6"] = scale_entry(Tensor(A), P, trace)
    for op in grid.build("approx-deep", 0, work):
        C, d, n = op.problem.C.data, op.problem.C.d, op.problem.C.n
        try:
            K = tensor.exp_neg_scaled(Tensor(C - C.min()), 2.0 * d * math.log(n) / op.delta)
        except ContractViolation:  # the kernel underflows; approx_entries records it
            continue
        out[f"scale {op.name}"] = scale_entry(K, op.problem.P, trace)
    return out


def process(argv: list, work: Path) -> list:
    """Exit code, stdout and stderr of a child interpreter run with this
    process's environment, so it imports the same tensorot."""
    proc = subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                          timeout=grid.CLI_TIMEOUT_S, cwd=ROOT)
    return [proc.returncode] + [text.replace(str(work), "<work>")
                                for text in (proc.stdout, proc.stderr)]


def cli_entries(work: Path) -> dict:
    out = {}
    jobs = work / "cli"
    for op in grid.build("cli-setdist", 0, jobs):
        out[f"cli-setdist {op.name}"] = process(["-c", grid.CLI_MAIN] + op.argv, work)
    for path in sorted(jobs.iterdir()):
        out[f"cli-setdist input {path.name}"] = sha(path.read_bytes())
    return out


def demo_entries(work: Path) -> dict:
    return {f"demo {path.name}": process([str(path)], work)
            for path in sorted((ROOT / "demos").glob("*.py"))}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = {}
        for entries in (approx_entries, exact_entries, scale_entries, cli_entries,
                        demo_entries):
            out.update(entries(work))
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
