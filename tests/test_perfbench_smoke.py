"""The benchmark harness still runs against the library.

``perfbench/run.py`` wraps library functions and reads their argument
names, so a signature change there can break the benchmark without any
other test noticing.  This runs the harness's own smoke test.
"""

from conftest import run_python


def test_smoke_passes():
    proc = run_python("perfbench/smoke.py", timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
