"""Each demo runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_discover_from_csv.py",
    "02_function_classes.py",
    "03_random_functions.py",
    "04_benchmarks.py",
    "05_theory_checks.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
