"""The benchmark's tracer finds every name it wraps, and puts each back.

``perfbench/spans.py`` replaces freejordan functions at the names their
callers look up (``solver.phi_series``, ``rings.TZSeries.__mul__``, ...).
A renamed or deleted target makes every traced benchmark job fail, so this
checks the names in the tier-1 suite.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_restored():
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert tracer.missing == []
    finally:
        tracer.restore()
    assert tracer.leftover() == []
