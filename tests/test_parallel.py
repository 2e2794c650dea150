import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from cause_sieve.parallel import DEFAULT_THREADS, available_cores, thread_map

from conftest import use_threads


def test_available_cores_positive():
    assert available_cores() >= 1


def test_results_in_item_order(monkeypatch):
    # later items finish first, results still come back in item order
    use_threads(monkeypatch, 3)
    assert thread_map(lambda i: (time.sleep(0.01 * (3 - i)), i)[1], range(4)) == [0, 1, 2, 3]


def test_one_job_starts_no_thread(monkeypatch):
    use_threads(monkeypatch, 1)
    seen = []
    thread_map(lambda i: seen.append(threading.current_thread()), range(3))
    assert set(seen) == {threading.current_thread()}


def test_default_thread_count_is_capped():
    seen = set()

    def record(i):
        seen.add(threading.current_thread())
        time.sleep(0.01)

    thread_map(record, range(12))
    assert len(seen) <= min(DEFAULT_THREADS, available_cores())


def test_first_error_raised_after_workers_joined(monkeypatch):
    use_threads(monkeypatch, 3)
    before = threading.active_count()
    started = []

    def fn(i):
        started.append(i)
        if i == 2:
            raise KeyError(i)
        time.sleep(0.01)
        return i

    with pytest.raises(KeyError):
        thread_map(fn, range(50))
    assert threading.active_count() == before
    assert len(started) < 50  # items after the error are not started


def _thread_idents():
    """Idents of the threads that ran the items of one ``thread_map``."""
    return set(thread_map(lambda i: (time.sleep(0.01), threading.get_ident())[1], range(4)))


def _in_worker():
    return threading.get_ident(), _thread_idents()


def test_worker_process_runs_on_calling_thread():
    with ProcessPoolExecutor(1) as pool:
        caller, idents = pool.submit(_in_worker).result()
    assert idents == {caller}


def test_nested_thread_map_starts_no_thread(monkeypatch):
    # each item of a two-thread thread_map runs a thread_map of its own
    use_threads(monkeypatch, 2)
    before = threading.active_count()
    seen = thread_map(lambda i: (threading.get_ident(), _thread_idents()), range(2))
    assert {caller for caller, _ in seen} != {threading.get_ident()}  # the outer map did start threads
    assert all(idents == {caller} for caller, idents in seen)
    assert threading.active_count() == before
