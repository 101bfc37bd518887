"""The benchmark's span tracer against the names it wraps.

perfbench/spans.py replaces textmoe functions by module and attribute name,
so renaming or deleting one of them breaks the traced benchmark runs; here
that fails in milliseconds instead.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_tracer_installs_and_restores():
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = list(tracer._undo)
    finally:
        tracer.restore()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
