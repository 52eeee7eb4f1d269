"""The benchmark's span tracer finds every flowzip name it wraps."""

import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_perfbench_span_targets_resolve():
    # A renamed or no longer imported name would only surface as an incorrect
    # traced benchmark run; fail here instead.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{name}: {owner.__name__}.{attr}"
        for name, targets in spans.SPANS.items()
        for owner, attr in targets
        if attr not in owner.__dict__
    ]
    assert not missing
