"""The benchmark's tracer still finds every library function it wraps,
and the calls it counts still happen where it counts them."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from tensorot import lp, transport

from conftest import random_cost, random_marginals

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # fails if a traced function was renamed
    return spans


def test_tracer_wraps_and_restores_every_traced_function():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        seen = {fn: getattr(sys.modules[fn.__module__], fn.__name__) for fn in spans.TRACED}
    finally:
        tracer.uninstall()
    for fn, wrapper in seen.items():
        assert wrapper.__wrapped__ is fn, spans.span_name(fn)
        assert getattr(sys.modules[fn.__module__], fn.__name__) is fn


def test_exact_solve_pivots_through_the_traced_simplex(monkeypatch):
    # the tracer counts lp.pivots from lp.simplex_minimize's result
    calls = []
    solve = lp.simplex_minimize

    def spy(*args, **kwargs):
        calls.append(solve(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(lp, "simplex_minimize", spy)
    rng = np.random.default_rng(3)
    sol = lp.solve_exact_tot(random_cost(rng, 3, 6), random_marginals(rng, 3, 6))
    assert len(calls) == 1
    assert calls[0].iterations == sol.iterations > 0


def test_approx_scales_and_rounds_through_the_traced_functions():
    # scaling.steps and rounding.busy_ms count what approx_tot calls: one
    # scaling run per solve and one rounding per certificate check inside
    # it, so once each when the first check, at step 8, certifies
    spans = _load_spans()
    for delta, k_stop in ((0.2, 8), (0.05, 32)):
        tracer = spans.Tracer()
        tracer.op = 0
        tracer.install()
        try:
            rng = np.random.default_rng([5, 1])
            _, cert = transport.approx_tot(random_cost(rng, 3, 6), random_marginals(rng, 3, 6),
                                           delta)
        finally:
            tracer.uninstall()
        assert cert.k_stop == k_stop
        names = [s[0] for s in tracer.spans]
        assert names.count("scaling.sinkhorn_scale") == 1
        scale = names.index("scaling.sinkhorn_scale")
        rounds = [i for i, name in enumerate(names) if name == "rounding.round_to_polytope"]
        assert len(rounds) == k_stop.bit_length() - 3  # checks at 8, 16, ..., k_stop
        assert all(tracer.spans[i][3] == scale for i in rounds)
        assert tracer.layers({0})["scaling.steps"] == k_stop
