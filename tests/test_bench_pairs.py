"""`tools/bench_pairs.py` reads no summary from a wrong run: a run that is
not `correct`, or whose last line is not JSON, ends it with exit status 1.
Each end-to-end metric is judged against its bound from the parent's
BENCHMARK.json."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _checkout(root, *last_lines):
    """A directory whose perfbench/run.py prints the next of `last_lines`
    last, in turn, and whose BENCHMARK.json bounds verdict_s by 25%."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "from pathlib import Path\n"
        "seen = Path(__file__).with_name('runs')\n"
        "n = int(seen.read_text()) if seen.exists() else 0\n"
        "seen.write_text(str(n + 1))\n"
        "print('warming up')\n"
        "print(%r[n %% %d])\n" % (last_lines, len(last_lines)))
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "verdict_s", "better": "lower", "bound": 0.25}]}))
    return root


def _run(metric, correct=True, name="verdict_s"):
    return json.dumps({"correct": correct, "failed": 0, "attempted": 1,
                       "metrics": {name: {"value": metric}}})


def _pairs(parent, change, pairs=2):
    return subprocess.run(
        [sys.executable, str(BENCH_PAIRS), str(parent), str(change),
         "--workload", "w", "--pairs", str(pairs)],
        capture_output=True, text=True, timeout=60)


def test_correct_runs_are_summarised(tmp_path):
    proc = _pairs(_checkout(tmp_path / "a", _run(1.0)),
                  _checkout(tmp_path / "b", _run(0.5)))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["correct"] and out["verdict_s"]["change_wins"] == 2


@pytest.mark.parametrize("last_line", [_run(0.5, correct=False),
                                       "Traceback: not JSON", "[1, 2]"],
                         ids=["not-correct", "not-json", "not-an-object"])
def test_a_wrong_or_unreadable_run_exits_1(tmp_path, last_line):
    proc = _pairs(_checkout(tmp_path / "a", _run(1.0)),
                  _checkout(tmp_path / "b", last_line))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback (most recent call last)" not in proc.stderr


@pytest.mark.parametrize("parent, change, verdict, name", [
    ((1.0,), (1.1,), "ok", "verdict_s"),
    ((1.0,), (1.3,), "worse", "verdict_s"),
    ((0.5, 1.5), (1.0,), "unresolved", "verdict_s"),
    ((0.5, 1.5), (0.4,), "ok", "verdict_s"),
    ((1.0,), (1.1,), "ok", "w.verdict_s"),
    ((1.0,), (1.3,), "worse", "w.verdict_s"),
], ids=["within-bound", "beyond-bound", "noisy-parent", "noisy-but-beaten",
        "workload-within-bound", "workload-beyond-bound"])
def test_each_metric_is_judged_against_its_bound(tmp_path, parent, change,
                                                 verdict, name):
    """The parent's IQR is 0 with one value and 1.0 with two alternating
    ones, against a bound of 0.25 of its median 1.0.  `--workload all`
    names a metric `<workload>.verdict_s`; its bound is that of
    `verdict_s`."""
    proc = _pairs(
        _checkout(tmp_path / "a", *(_run(v, name=name) for v in parent)),
        _checkout(tmp_path / "b", *(_run(v, name=name) for v in change)),
        pairs=4)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)[name]
    assert out["bound"] == 0.25 and out["verdict"] == verdict


def test_a_parent_without_bounds_exits_1(tmp_path):
    parent = _checkout(tmp_path / "a", _run(1.0))
    (parent / "BENCHMARK.json").unlink()
    proc = _pairs(parent, _checkout(tmp_path / "b", _run(1.0)))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback (most recent call last)" not in proc.stderr
