"""Smoke test of the sixff benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that the inputs, the certified outputs and every per-layer count
repeat exactly for one seed, that another seed gives other inputs, that the
tracer's wrappers come off cleanly, and that the runner refuses a checkout
without sixff sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kernel-coherence", "six-ops-fresh", "hecke-duality")


def worker(workload, seed, mode):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--scale", "tiny"],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def counts(result):
    """Every per-layer value except the timings."""
    return {k: v for k, v in result["layers"].items()
            if not k.endswith("self_s")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_exactly(workload):
    first = [worker(workload, 3, mode) for mode in ("spans", "counts")]
    again = [worker(workload, 3, mode) for mode in ("spans", "counts")]
    for a, b in zip(first, again):
        assert a["fingerprint"] == b["fingerprint"]
        assert a["digests"] == b["digests"]
        assert counts(a) == counts(b)
        assert not a["failures"] and not a["mismatches"]
    assert first[0]["digests"] == first[1]["digests"]
    assert first[0]["missing_wrappers"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert worker(workload, 3, "setup")["fingerprint"] != \
        worker(workload, 4, "setup")["fingerprint"]


def test_workloads_separate_the_layers():
    kc = worker("kernel-coherence", 3, "counts")["layers"]
    so = worker("six-ops-fresh", 3, "counts")["layers"]
    assert kc["fields.fp_allocs"] == 0 < so["fields.fp_allocs"]
    kc = worker("kernel-coherence", 3, "spans")["layers"]
    so = worker("six-ops-fresh", 3, "spans")["layers"]
    assert kc["linalg.rref.repeat_ratio"] > so["linalg.rref.repeat_ratio"]
    hd = worker("hecke-duality", 3, "spans")["layers"]
    assert hd["hecke.sweep.linalg_calls"] == 0
    assert hd["hecke.double_cosets.calls"] > 0


def test_wrappers_are_removed():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import tracing
        from sixff import hecke, kernels, sheaves
        from sixff.linalg import Matrix
        originals = (Matrix.__dict__["rref"], sheaves.hom_space,
                     hecke.hom_space, kernels.base_change_cell)
        for tracer in (tracing.SpanTracer(), tracing.CountTracer()):
            tracer.install()
            if isinstance(tracer, tracing.SpanTracer):
                # a function is patched wherever a sixff module binds it
                assert hecke.hom_space is sheaves.hom_space
                assert hecke.hom_space is not originals[1]
            tracer.remove()
            tracing.assert_clean()
        assert (Matrix.__dict__["rref"], sheaves.hom_space, hecke.hom_space,
                kernels.base_change_cell) == originals
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(HERE))


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "six-ops-fresh",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hecke-duality",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
