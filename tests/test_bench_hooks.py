"""The benchmark's tracer (bench/spans.py) wraps library functions by module
attribute; a rename in the library must fail here, not in a traced run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_attribute_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # standard library imports only
    assert spans.PATCHES
    for module_name, attr, _metric in spans.PATCHES:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"
