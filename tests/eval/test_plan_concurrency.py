"""Regression tests for ResultsCache thread safety.

The cache is shared by threaded-backend workers and by concurrent serve
requests resolving against one session, but historically carried no lock:
``hits``/``misses``/``_rows``/``_dirty`` were mutated bare (the exact
pattern the ``lock-discipline`` lint rule now rejects repo-wide).  These
tests pin the fix: a real lock exists and counters stay exact under
contention.
"""

from __future__ import annotations

import threading

from repro.plan import ResultsCache

_RLOCK_TYPE = type(threading.RLock())


def test_results_cache_carries_a_real_lock():
    assert isinstance(ResultsCache()._lock, _RLOCK_TYPE)


def test_counters_exact_under_concurrent_access():
    cache = ResultsCache()
    threads, ops = 8, 200
    barrier = threading.Barrier(threads)

    def worker(worker_id):
        barrier.wait()
        for index in range(ops):
            key = f"key-{index % 25}"
            if cache.get(key) is None:
                cache.put(key, {"worker": worker_id, "index": index})

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()

    # Every get incremented exactly one counter; a torn update would lose
    # increments and break this identity.
    assert cache.hits + cache.misses == threads * ops
    assert len(cache) == 25
    assert cache.misses >= 25  # each distinct key missed at least once
