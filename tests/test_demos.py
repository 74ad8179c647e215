"""Smoke test: the quick demos run to completion and write nothing to stderr.

``04_monte_carlo_check.py`` is left out: it takes about 7 s on a 2-vCPU
host, most of it in binned event counting, and CI runs it as a step of its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_rotation_sensing_floor.py",
    "02_populations_through_loss.py",
    "03_bias_landscape.py",
    "05_coherence_and_drift.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_clean(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    # Run in tmp_path: the bias-landscape demo writes its CSV to the working directory.
    proc = subprocess.run([sys.executable, str(REPO / "demos" / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
