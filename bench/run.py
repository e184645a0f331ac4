"""tensorot benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload approx-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Steps, each in a fresh Python process:

1. reference: HiGHS optima and in-process library results for the
   correctness gate (not timed, not part of set-up);
2. set-up probes: ``import tensorot`` and building the inputs, timed up to
   the child's ``ready`` line (with ``--trace 1`` the import is timed
   against a bare interpreter instead);
3. the workload loop itself (see ``child.py``).

Prints a report, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("approx-wide", "approx-deep", "exact", "cli-setdist")
SETUP_PROBES = 4  # half before and half after the workload process, which adds one
IMPORT_PROBES = 5
DEADLINE_S = 170  # the whole run, so that it ends within 180 s
COUNT_STATE = BENCH / "_state" / "counts.json"
EXACT_COUNTS = ("scaling.steps", "lp.pivots", "setdist.pairs")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def child_cmd(role: str, args, workdir: Path, *extra) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), role, "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir), *map(str, extra)]


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget exhausted")
    return left


def spawn(cmd: list[str], **kwargs) -> subprocess.Popen:
    """Start a child in its own process group, so that ``stop`` also ends
    the CLI processes it may have started."""
    return subprocess.Popen(cmd, env=child_env(), start_new_session=True, **kwargs)


def stop(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def finish(proc: subprocess.Popen, deadline: float, what: str) -> None:
    try:
        code = proc.wait(timeout=remaining(deadline))
    except (subprocess.TimeoutExpired, BenchError):
        stop(proc)
        raise BenchError(f"{what} did not finish in time")
    if code != 0:
        raise BenchError(f"{what} exited with code {code}")


def start_until_ready(cmd: list[str], deadline: float, what: str):
    """Start a child and return (process, seconds until it printed ready)."""
    t0 = time.perf_counter()
    proc = spawn(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], remaining(deadline))
        line = proc.stdout.readline() if ready else ""
    except BenchError:
        line = ""
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"{what} never got ready")
    return proc, elapsed


def probe_setup(args, work: Path, indices, deadline: float) -> list[float]:
    """Set-up times of fresh probe processes that stop once they are ready."""
    times = []
    for i in indices:
        proc, secs = start_until_ready(
            child_cmd("setup", args, work / f"setup{i}"), deadline, "set-up probe")
        finish(proc, deadline, "set-up probe")
        times.append(secs)
    return times


def import_ms(deadline: float) -> float:
    """Median wall of ``import tensorot`` in a fresh process, minus a bare one."""
    times = {"pass": [], "import tensorot": []}
    for _ in range(IMPORT_PROBES):
        for code, samples in times.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                           timeout=remaining(deadline))
            samples.append(time.perf_counter() - t0)
    return 1e3 * (statistics.median(times["import tensorot"]) - statistics.median(times["pass"]))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, pct, n).

    With 10 samples or fewer no percentile qualifies and the maximum is given.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = n - 10 if n > 10 else n  # 1-based nearest rank
    return xs[rank - 1], 100.0 * rank / n, n


def check_counts(key: str, layers: list[dict]) -> list[str]:
    """Exact counts must repeat across traced cycles and across runs of a seed."""
    drift = []
    first = {name: layers[0][name] for name in EXACT_COUNTS}
    for i, cyc in enumerate(layers[1:], 1):
        for name in EXACT_COUNTS:
            if cyc[name] != first[name]:
                drift.append(f"{name}: cycle {i} has {cyc[name]}, cycle 0 has {first[name]}")
    COUNT_STATE.parent.mkdir(exist_ok=True)
    state = json.loads(COUNT_STATE.read_text()) if COUNT_STATE.exists() else {}
    for name, value in state.get(key, {}).items():
        if first.get(name) != value:
            drift.append(f"{name}: {first.get(name)} now, {value} in an earlier run")
    state[key] = first
    COUNT_STATE.write_text(json.dumps(state, indent=1, sort_keys=True))
    return drift


def unit(name: str) -> str:
    for suffix in ("ms", "us"):
        if name.endswith("_" + suffix):
            return suffix
    return "B" if name == "io.bytes_read" else "count"


def ok_ms(records: list[dict]) -> list[float]:
    return [r["ms"] for r in records if r["status"] == "ok"]


def summarise(args, result: dict, setups: list[float], imp_ms) -> tuple[dict, dict]:
    records = result["records"]
    plain = [r for r in records if r["pass"] == "plain"]
    ok = ok_ms(plain)
    if not ok:
        raise BenchError("no op succeeded")
    tail_ms, tail_pct, tail_n = tail(ok)
    gaps = [r["gap"] for r in plain if r.get("gap") is not None]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), **result["versions"],
        "cycles": result["cycles"], "planned_cycles": result["planned_cycles"],
        "ops_per_cycle": result["ops_per_cycle"],
        "op_tail_percentile": round(tail_pct, 2), "op_samples": tail_n,
        "fail_rate": sum(r["status"] != "ok" for r in records) / len(records),
        "gap_frac": max(gaps) if gaps else None,
        "failures": dict(Counter(r["error"].split(":")[0] if r["status"] == "raised"
                                 else "wrong result" for r in records if r["status"] != "ok")),
        "wrong": sorted({f"{r['op']}: {r['error']}" for r in records if r["status"] == "wrong"}),
    }
    if not args.trace:
        metrics = {
            "op_p50_ms": (statistics.median(ok), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "ops_per_s": (len(ok) / (sum(r["ms"] for r in plain) / 1e3), "1/s"),
            "peak_rss_mb": (max(result["maxrss_kb"].values()) / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        report["setup_samples_s"] = setups
        return metrics, report

    layers = result["layers"]
    merged = {name: statistics.median(cyc[name] for cyc in layers) for name in layers[0]}
    base = "inproc" if args.workload == "cli-setdist" else "plain"
    by_pass = {p: ok_ms([r for r in records if r["pass"] == p]) for p in (base, "traced")}
    process = [sum(r["ms"] for r in plain if r["cycle"] == c) for c in range(result["cycles"])]
    metrics = {name: (merged[name], unit(name)) for name in sorted(merged)}
    metrics["cli.import_ms"] = (imp_ms, "ms")
    metrics["cli.process_ms"] = (statistics.median(process)
                                 if args.workload == "cli-setdist" else 0.0, "ms")
    metrics["trace.overhead_ms"] = (statistics.median(by_pass["traced"])
                                    - statistics.median(by_pass[base]), "ms")
    report["count_drift"] = check_counts(f"{args.workload} seed={args.seed}", layers)
    report["unaccounted_spans"] = result["unaccounted"]
    return metrics, report


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    try:
        refs = work / "refs.json"
        proc = spawn(child_cmd("reference", args, work / "reference", "--out", refs))
        finish(proc, deadline, "reference solver")
        setups, imp = [], None
        if args.trace:
            imp = import_ms(deadline)
        else:
            setups += probe_setup(args, work, range(SETUP_PROBES // 2), deadline)
        out = work / "result.json"
        proc, secs = start_until_ready(
            child_cmd("run", args, work / "run", "--out", out, "--refs", refs,
                      "--seconds", args.seconds, "--trace", args.trace),
            deadline, "workload process")
        finish(proc, deadline, "workload process")
        result = json.loads(out.read_text())
        if not args.trace:
            setups.append(secs)
            setups += probe_setup(args, work, range(SETUP_PROBES // 2, SETUP_PROBES), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if Path(result["tensorot"]).resolve().parent.parent != (ROOT / "src").resolve():
        raise BenchError(f"imported tensorot from {result['tensorot']}, not this checkout")
    return result, setups, imp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tensorot" / "__init__.py").is_file():
        print(f"bench: no tensorot package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, setups, imp = run(args)
        metrics, report = summarise(args, result, setups, imp)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    correct = not report["wrong"] and not report.get("unaccounted_spans")
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:14.4f} {unit}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": len(result["records"]),
        "failed": sum(r["status"] != "ok" for r in result["records"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
