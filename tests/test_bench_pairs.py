"""`tools/bench_pairs.py` reads no summary from a wrong run: a run that is
not `correct`, or whose last line is not JSON, ends it with exit status 1."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _checkout(root, last_line):
    """A directory whose perfbench/run.py prints `last_line` last."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "print('warming up')\nprint(%r)\n" % last_line)
    return root


def _run(metric, correct=True):
    return json.dumps({"correct": correct, "failed": 0, "attempted": 1,
                       "metrics": {"verdict_s": {"value": metric}}})


def _pairs(parent, change):
    return subprocess.run(
        [sys.executable, str(BENCH_PAIRS), str(parent), str(change),
         "--workload", "w", "--pairs", "2"],
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
