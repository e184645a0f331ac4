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
* ``cli-setdist``: sha256 of every input file, and the exit code, stdout
  and stderr of the job run as its own process, as the benchmark runs it;
* each ``demos/*.py``: exit code and stdout.

The temporary directory's path is replaced by ``<work>`` in captured text.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import grid  # noqa: E402
from tensorot import lp, transport  # noqa: E402


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
        for entries in (approx_entries, exact_entries, cli_entries, demo_entries):
            out.update(entries(work))
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
