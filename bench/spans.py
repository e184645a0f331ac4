"""Spans around calls into tensorot, recorded from the benchmark's side.

``Tracer.install`` replaces each traced public function by a wrapper in
every tensorot module that holds it, so calls between modules (for example
``approx_tot`` calling ``sinkhorn_scale``) are seen as well as the
benchmark's own calls.  Spans are kept in memory; ``cycle_layers`` turns
them into per-layer times and counts.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from typing import Optional

import tensorot
from tensorot import cli, io, lp, rounding, scaling, setdist, tensor, transport

MODULES = (tensor, scaling, rounding, transport, lp, setdist, io, cli, tensorot)


def _steps(result):
    return {"scaling.steps": result[2].k_stop, "scaling.calls": 1}


def _file_bytes(args):
    return {"io.bytes_read": os.path.getsize(args[0])}


# traced function -> counts to take from (args, result)
TRACED = {
    tensor.exp_neg_scaled: None,
    tensor.inner: lambda a, r: {"tensor.reduce_calls": 1},
    tensor.entropy: lambda a, r: {"tensor.reduce_calls": 1},
    tensor.l1_distance: lambda a, r: {"tensor.reduce_calls": 1},
    scaling.sinkhorn_scale: lambda a, r: _steps(r),
    rounding.round_to_polytope: None,
    transport.approx_tot: None,
    transport.entropic_tot: None,
    lp.solve_exact_tot: None,
    lp.transport_constraints: None,
    lp.simplex_minimize: lambda a, r: {"lp.pivots": r.iterations},
    lp.scalability_check: None,
    setdist.set_distance: None,
    setdist.cost_profile: None,
    setdist.check_bisymmetric: None,
    setdist.check_distance_matrix: None,
    setdist.check_multiset_distance: None,
    setdist.pair_distance: lambda a, r: {"setdist.pairs": 1},
    io.load_tensor: lambda a, r: _file_bytes(a),
    io.load_marginals: lambda a, r: _file_bytes(a),
    cli.run: None,
}

# per-layer time metric -> span names whose durations it sums
LAYER_TIMES = {
    "tensor.kernel_ms": ("tensor.exp_neg_scaled",),
    "tensor.reduce_ms": ("tensor.inner", "tensor.entropy", "tensor.l1_distance"),
    "scaling.busy_ms": ("scaling.sinkhorn_scale",),
    "rounding.busy_ms": ("rounding.round_to_polytope",),
    "transport.approx_ms": ("transport.approx_tot",),
    "lp.solve_ms": ("lp.solve_exact_tot",),
    "lp.constraints_ms": ("lp.transport_constraints",),
    "lp.simplex_ms": ("lp.simplex_minimize",),
    "lp.scalable_ms": ("lp.scalability_check",),
    "setdist.profile_ms": ("setdist.cost_profile",),
    "setdist.bisym_ms": ("setdist.check_bisymmetric",),
    "setdist.triangle_ms": ("setdist.check_distance_matrix", "setdist.check_multiset_distance"),
    "setdist.pair_ms": ("setdist.pair_distance",),
    "io.load_ms": ("io.load_tensor", "io.load_marginals"),
    "cli.run_ms": ("cli.run",),
}
COUNTS = ("tensor.reduce_calls", "scaling.steps", "lp.pivots", "setdist.pairs", "io.bytes_read")


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('tensorot.')}.{fn.__name__}"


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}  # op id -> counts
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, counter):
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                self.counts.setdefault(self.op, Counter()).update(counter(args, result))
            return result

        return traced

    def install(self) -> None:
        wrappers = {fn: self._wrap(fn, counter) for fn, counter in TRACED.items()}
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def unaccounted(self) -> list[str]:
        """Spans whose children do not fit inside them, one after another.

        When this is empty, every span's duration is exactly its self time
        plus the time its children cover.
        """
        problems = []
        last_end: dict[int, float] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end is None or end < start:
                problems.append(f"span {i} ({name}) has no valid end")
                continue
            if parent is None:
                continue
            p_start, p_end = self.spans[parent][1], self.spans[parent][2]
            if start < max(p_start, last_end.get(parent, p_start)) or end > p_end:
                problems.append(f"span {i} ({name}) overlaps a sibling or leaves its parent")
            last_end[parent] = end
        return problems

    def layers(self, ops: set[int]) -> dict:
        """Per-layer times (ms) and counts summed over the spans of ``ops``."""
        dur: Counter = Counter()
        child: Counter = Counter()  # span index -> time covered by children
        for name, start, end, parent, op in self.spans:
            if op not in ops:
                continue
            dur[name] += end - start
            if parent is not None:
                child[parent] += end - start
        out = {metric: 1e3 * sum(dur[n] for n in names) for metric, names in LAYER_TIMES.items()}
        out["transport.self_ms"] = 1e3 * sum(
            (s[2] - s[1]) - child[i] for i, s in enumerate(self.spans)
            if s[4] in ops and s[0].startswith("transport."))
        counts = sum((self.counts.get(op, Counter()) for op in ops), Counter())
        out.update({name: counts[name] for name in COUNTS})
        out["scaling.step_us"] = (1e3 * out["scaling.busy_ms"]
                                  / max(counts["scaling.steps"] + counts["scaling.calls"], 1))
        out["lp.pivot_us"] = 1e3 * out["lp.simplex_ms"] / max(counts["lp.pivots"], 1)
        return out
