import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings

from cause_sieve import parallel
from cause_sieve.model import Dataset, validate_dataset

# one profile for every property test: the same examples on every run
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

ROOT = Path(__file__).resolve().parents[1]


def use_threads(monkeypatch, count: int) -> None:
    """Make a top-level ``thread_map`` run on ``count`` threads, even on a
    host with fewer cores."""
    monkeypatch.setattr(parallel, "DEFAULT_THREADS", count)
    monkeypatch.setattr(parallel, "available_cores", lambda: count)


def table(y, *cols, names=None) -> Dataset:
    """Build a validated dataset with target column Y."""
    y = np.asarray(y, dtype=float)
    cols = [np.asarray(c, dtype=float) for c in cols]
    names = names or ["Y"] + [f"X{i}" for i in range(1, len(cols) + 1)]
    return validate_dataset(np.column_stack([y, *cols]), names, "Y")


def run_python(*args: str, env: dict[str, str] | None = None, timeout: float = 300) -> subprocess.CompletedProcess:
    """Run this interpreter on ``args`` (``"-c", code`` or a script path) in a
    child process at the repository root, with ``src`` first on its
    ``PYTHONPATH`` and ``env`` added to its environment; the test process's
    own environment is left as it is."""
    child_env = dict(os.environ, **(env or {}))
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env, capture_output=True, text=True, timeout=timeout)
