"""The benchmark harness still runs against the library.

``perfbench/run.py`` wraps library functions and reads their argument
names, so a signature change there can break the benchmark without any
other test noticing.  This runs the harness's own smoke test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
