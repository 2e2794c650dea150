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
  ``stattests.perm_significance`` are written from such calls.  A spline
  candidate's, most of its time, are scored in batches of (m, P) stacks
  (``stattests.piece_losses``): the significance test of two four-member
  candidates runs x1.5 faster on two threads than in turn, and x1.1-1.2
  when each permutation is scored alone, its two dozen small calls each
  taking the lock back.  A kernel-local candidate's are one (m, m) GEMM per
  sum and covariate, then gathers of 50 permutations at a time, each a few
  dozen calls on (50, m) arrays: the significance tests of two
  three-member candidates at n = 500 run x1.3 faster on two threads than
  in turn (median of 7);
- the spline solve, LAPACK ``dgesv``, releases it as ``regress`` calls it,
  through scipy's ``cython_lapack`` pointer: at n = 500 two threads run
  twice the solves in x0.97-1.37 the time one thread takes, against
  x1.64-2.59 for scipy's f2py ``dgesv``, which holds the lock.
  ``np.linalg.solve`` would release it too, but links numpy's own OpenBLAS
  (0.3.31 ILP64, where scipy links 0.3.30): in its place the spline's
  bits moved, and a ``b1-additive`` table took a median 0.82 s on two
  threads against 0.67 s.

One rule sets the thread count, and no caller passes one: a
:func:`thread_map` already inside a parallel unit, a worker process (the
CLI's replicate pool) or one of its own worker threads (an ``analyze``
inside a theory-check draw), runs in order on the calling thread, so
parallelism stays one level deep; anywhere else it runs on
``min(DEFAULT_THREADS, available_cores())`` threads.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# Threads of a top-level thread_map.  Memory grows with the threads (one
# (n, n) float array per concurrent HSIC, 32 MB at n=2000), and speed and
# peak memory have been measured on two cores only, so the count does not
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


def thread_map(fn, items) -> list:
    """``[fn(item) for item in items]`` on ``1 if _nested() else
    min(DEFAULT_THREADS, available_cores())`` threads, at most one per item.

    No thread starts when that count is 1.  Items start in the order given
    and results come back in that order.  If a call raises, items not yet
    started are cancelled and the first error in item order is raised once
    every worker thread has been joined.
    """
    items = list(items)
    threads = 1 if _nested() else min(DEFAULT_THREADS, available_cores(), len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(threads, thread_name_prefix=THREAD_PREFIX) as pool:
        return list(pool.map(fn, items))
