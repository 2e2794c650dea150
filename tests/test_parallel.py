import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from cause_sieve.errors import BadParam
from cause_sieve.parallel import DEFAULT_THREADS, available_cores, thread_map


def test_available_cores_positive():
    assert available_cores() >= 1


def test_results_in_item_order():
    # later items finish first, results still come back in item order
    assert thread_map(lambda i: (time.sleep(0.01 * (3 - i)), i)[1], range(4), jobs=3) == [0, 1, 2, 3]


def test_one_job_starts_no_thread():
    seen = []
    thread_map(lambda i: seen.append(threading.current_thread()), range(3), jobs=1)
    assert set(seen) == {threading.current_thread()}


def test_jobs_below_one_rejected():
    with pytest.raises(BadParam):
        thread_map(str, range(3), jobs=0)


def test_default_thread_count_is_capped():
    seen = set()

    def record(i):
        seen.add(threading.current_thread())
        time.sleep(0.01)

    thread_map(record, range(12))
    assert len(seen) <= min(DEFAULT_THREADS, available_cores())


def test_first_error_raised_after_workers_joined():
    before = threading.active_count()
    started = []

    def fn(i):
        started.append(i)
        if i == 2:
            raise KeyError(i)
        time.sleep(0.01)
        return i

    with pytest.raises(KeyError):
        thread_map(fn, range(50), jobs=3)
    assert threading.active_count() == before
    assert len(started) < 50  # items after the error are not started


def _thread_idents(jobs):
    """Idents of the threads that ran the items of one ``thread_map``."""
    return set(thread_map(lambda i: (time.sleep(0.01), threading.get_ident())[1], range(4), jobs))


def _in_worker(jobs):
    return threading.get_ident(), _thread_idents(jobs)


def _inside_thread_map(jobs):
    """(outer worker thread, inner thread idents) of a ``thread_map`` run
    inside each item of a two-thread ``thread_map``."""
    return thread_map(lambda i: (threading.get_ident(), _thread_idents(jobs)), range(2), jobs=2)


def test_worker_process_runs_on_calling_thread():
    with ProcessPoolExecutor(1) as pool:
        caller, idents = pool.submit(_in_worker, None).result()
    assert idents == {caller}


def test_nested_thread_map_starts_no_thread():
    before = threading.active_count()
    seen = _inside_thread_map(None)
    assert {caller for caller, _ in seen} != {threading.get_ident()}  # the outer map did start threads
    assert all(idents == {caller} for caller, idents in seen)
    assert threading.active_count() == before


def test_explicit_jobs_still_start_threads():
    with ProcessPoolExecutor(1) as pool:
        caller, idents = pool.submit(_in_worker, 2).result()
    assert caller not in idents
    assert all(caller not in idents for caller, idents in _inside_thread_map(2))
