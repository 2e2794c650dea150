"""One executor for independent units of work: candidate sets, theory-check draws.

Each unit seeds its own substreams (see :mod:`seeding`), so the results do
not depend on how many threads run them or in which order they finish.
Threads, not processes: threads share the table instead of pickling it,
but they overlap only where the work releases the interpreter lock, and
not all of it does.  Measured on 2 vCPUs with one BLAS thread, two threads
against one:

- numpy ufuncs on whole arrays, ``np.take`` and ``np.dot`` release it; the
  matrix-vector ``@`` does not (x1.0 at 250 x 250, where ``np.dot`` gives
  x1.4 and the same bits).  The permuted losses of
  ``stattests.perm_significance``, most of a spline candidate's time, are
  written from such calls and scored in batches: the significance test of
  two four-member candidates runs x1.5 faster on two threads than in
  turn, and x1.1-1.2 when each permutation is scored alone, its two dozen
  small calls each taking the lock back;
- scipy's LAPACK ``dgesv``, the spline solve, holds it: at n = 500 two
  threads give x0.9 where two processes give x1.9, and ``np.linalg.solve``
  does no better.

Parallelism stays one level deep.  A :func:`thread_map` given no thread
count runs in order on the calling thread when it is already inside a
parallel unit: in a worker process (the CLI's replicate pool), or on one of
its own worker threads (an ``analyze`` inside a theory-check draw).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .errors import BadParam

# Threads used when no count is given.  Memory grows with the threads (two
# (n, n) float arrays per concurrent HSIC, 64 MB at n=2000), and speed and
# peak memory have been measured on two cores only, so the default does not
# grow with the host.
DEFAULT_THREADS = 2

THREAD_PREFIX = "cause-sieve"


def available_cores() -> int:
    """CPUs this process may run on: its affinity mask, which honours
    cpusets and ``taskset``, unlike ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _nested() -> bool:
    """Whether the caller already runs inside a parallel unit: a worker
    process, or a :func:`thread_map` worker thread."""
    return multiprocessing.parent_process() is not None or threading.current_thread().name.startswith(THREAD_PREFIX)


def thread_map(fn, items, jobs: int | None = None) -> list:
    """``[fn(item) for item in items]`` on at most ``jobs`` threads.

    ``jobs=None`` means one thread inside a worker process or on a
    ``thread_map`` worker thread, so parallelism stays one level deep, and
    ``min(DEFAULT_THREADS, available_cores())`` everywhere else.  An explicit
    ``jobs`` is obeyed.  No thread starts when there is one item or
    ``jobs == 1``.  Items start in the order given and results come back in
    that order.  If a call raises, items not yet started are cancelled and
    the first error in item order is raised once every worker thread has
    been joined.
    """
    items = list(items)
    if jobs is None:
        jobs = 1 if _nested() else min(DEFAULT_THREADS, available_cores())
    if jobs < 1:
        raise BadParam(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(jobs, thread_name_prefix=THREAD_PREFIX) as pool:
        return list(pool.map(fn, items))
