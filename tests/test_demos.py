import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# each demo's stdout, byte for byte; a deliberate change to a demo's output
# rewrites its file here
OUTPUTS = Path(__file__).resolve().parent / "demo_outputs"


def _run(demo, *flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONIOENCODING="utf-8")
    proc = subprocess.run([sys.executable, *flags, str(demo)], cwd=ROOT,
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    expected = (OUTPUTS / (demo.stem + ".txt")).read_bytes()
    assert proc.stdout.decode("utf-8") == expected.decode("utf-8")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    _run(demo)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_without_asserts(demo):
    """The same output under `python -O`, which strips every `assert`: no
    certificate may rest on one."""
    _run(demo, "-O")
