"""Every callable the benchmark's tracer wraps must stay where the tracer
looks for it, and the tracer must leave sixff as it found it."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import sixff

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # the tracer patches every loaded module that binds a wrapped function,
    # so load them all first, as a benchmark run has
    for info in pkgutil.iter_modules(sixff.__path__):
        importlib.import_module("sixff." + info.name)
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tracer", ["SpanTracer", "CountTracer"])
def test_tracer_installs_and_removes_cleanly(tracer):
    tracing = _load_tracing()
    t = getattr(tracing, tracer)()
    t.install()
    try:
        with pytest.raises(RuntimeError):
            tracing.assert_clean()
    finally:
        t.remove()
    tracing.assert_clean()
