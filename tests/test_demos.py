"""Smoke test: the fast demos run against the source tree and exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_hull_constrained_shift.py",
                                  "02_synthetic_benchmark.py",
                                  "05_gradient_checking.py"])
def test_demo_exits_zero(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
