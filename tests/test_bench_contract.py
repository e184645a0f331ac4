"""The benchmark's tracer still finds every library function it wraps,
and the calls it counts still happen where it counts them."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from tensorot import lp

from conftest import random_cost, random_marginals

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_tracer_wraps_and_restores_every_traced_function():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # fails if a traced function was renamed
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
