"""The walkthrough scripts in ``demos/`` run to the end against ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import c3realize

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(c3realize.__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["realization_walkthrough.py",
                                    "decomposition_walkthrough.py"])
def test_walkthrough_runs(script):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
