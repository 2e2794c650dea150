import threading
import time

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
