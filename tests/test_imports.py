from conftest import run_python

# scipy.stats and scipy.spatial together load several hundred modules and
# most of a second; the package needs only scipy.special and scipy.linalg
PROBE = """
import sys
import cause_sieve, cause_sieve.cli
print(*sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.spatial"))))
"""


def test_import_leaves_scipy_stats_and_spatial_unloaded():
    proc = run_python("-c", PROBE, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
