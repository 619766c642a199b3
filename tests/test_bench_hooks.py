"""The benchmark's tracer (bench/spans.py) wraps library functions by module
attribute; a rename in the library must fail here, not in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from diqkd_bounds import er_numeric, intrinsic_info, make_isotropic, measures

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # standard library imports only
    return spans


def test_every_traced_attribute_resolves_to_a_callable():
    spans = load_spans()
    assert spans.PATCHES
    for module_name, attr, _metric in spans.PATCHES:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


# (call, descents, starts): intrinsic_info runs its 4 restarts in one lockstep
# descent, er_numeric makes one descent per restart
@pytest.mark.parametrize("call, descents, starts", [
    (lambda: intrinsic_info(np.random.default_rng(3).dirichlet(np.ones(12)).reshape(2, 2, 3)),
     1, 4),
    (lambda: er_numeric(make_isotropic(0.1), restarts=2), 2, 2),
], ids=["intrinsic_info", "er_numeric"])
def test_tracer_reads_the_counters_of_every_descent(call, descents, starts, monkeypatch):
    # the tracer's own wrapper (it reads the method keyword, then int(res.nfev)
    # and int(res.nit)) around a recorder of what minimize returned
    results, driver = [], measures.minimize

    def recording(*args, **kwargs):
        results.append(driver(*args, **kwargs))
        return results[-1]

    tracer = load_spans().Tracer()
    monkeypatch.setattr(measures, "minimize", tracer._wrap("measures.minimize", recording))
    call()
    totals = tracer.totals()
    runs = [run for res in results for run in res.runs]
    assert totals["measures.minimize.l-bfgs-b.calls"] == len(results) == descents
    assert len(runs) == starts
    assert totals["measures.minimize.l-bfgs-b.nfev"] == sum(run.nfev for run in runs) > 0
    assert totals["measures.minimize.l-bfgs-b.nit"] == sum(run.nit for run in runs) > 0
