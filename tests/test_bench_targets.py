"""Every callable the benchmark's tracer wraps must stay where the tracer
looks for it and fire on the workloads that expect it, and the tracer must
leave sixff as it found it."""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
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


# One tiny round in a fresh interpreter, as every benchmark round runs.  In
# the test process, caches that earlier tests filled (`presets.group`,
# `sheaves._invariant_data`) keep `FiniteGroup.__init__` and `Matrix.rref`
# from firing.  The round certifies and checks in that one process and
# prints what fired; it starts no worker and writes no file.
_TINY_ROUND = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracing, workloads
tracer = tracing.SpanTracer()
tracer.install()
try:
    wl = workloads.make(sys.argv[3], 0, "tiny")
    failed = [inst.id for inst in wl.instances
              if not all(wl.check(inst, wl.certify(inst))[::2])]
finally:
    tracer.remove()
tracing.assert_clean()
print(json.dumps({"failed": failed, "fired": sorted(tracer.fired())}))
"""


@pytest.mark.parametrize("workload", ["kernel-coherence", "six-ops-fresh",
                                      "hecke-duality"])
def test_every_expected_wrapper_fires_at_tiny_scale(workload):
    """A shortcut inside sixff must not starve a layer the benchmark
    reports: a tiny round of each workload, traced by spans, passes its
    checks and fires every wrapper that `tracing.EXPECTED` names."""
    root = TRACING.parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _TINY_ROUND, str(root / "src"),
         str(TRACING.parent), workload],
        cwd=root, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failed"] == []
    expected = _load_tracing().EXPECTED[workload]
    assert [p for p in expected if p not in out["fired"]] == []
