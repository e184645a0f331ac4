"""The benchmark's tracer still finds every library function it wraps."""

import importlib.util
import sys
from pathlib import Path

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
