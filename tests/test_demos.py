"""Each demo runs to completion and prints something."""

import pytest

from conftest import ROOT, run_python

DEMOS = [
    "01_discover_from_csv.py",
    "02_function_classes.py",
    "03_random_functions.py",
    "04_benchmarks.py",
    "05_theory_checks.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = run_python(str(ROOT / "demos" / demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
