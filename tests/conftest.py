import numpy as np
from hypothesis import settings

from cause_sieve import parallel
from cause_sieve.model import Dataset, validate_dataset

# one profile for every property test: the same examples on every run
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


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
