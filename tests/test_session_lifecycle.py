"""Session.close() hardening and the ResultStore.stats() surface."""

import threading

import pytest

from repro.config import spikestream_config
from repro.session import ResultStore, Session


class TestCloseIdempotent:
    def test_double_close_is_safe(self):
        session = Session(jobs=2, backend="thread")
        session.run_variants(batch_size=1, seed=1)
        session.close()
        session.close()  # second close must be a no-op, not an error

    def test_close_without_any_work(self):
        session = Session()
        session.close()
        session.close()

    def test_caches_usable_after_close(self):
        session = Session()
        config = spikestream_config(batch_size=1, seed=4)
        first = session.run_inference(config, batch_size=1, seed=4)
        session.close()
        hits_before = session.store.hits
        again = session.run_inference(config, batch_size=1, seed=4)
        assert session.store.hits == hits_before + 1
        assert again.identical_to(first)


class TestCloseConcurrent:
    def test_close_while_parallel_work_in_flight(self):
        """close() must drain dispatched work, not drop or crash it."""
        session = Session(jobs=2, backend="thread")
        results = {}
        errors = []

        def run():
            try:
                results["variants"] = session.run_variants(batch_size=1, seed=9)
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        worker = threading.Thread(target=run)
        worker.start()
        # Race close against the in-flight variants run from the main thread.
        session.close()
        worker.join(timeout=120)
        assert not errors, f"close-while-running broke the run: {errors!r}"
        assert set(results.get("variants", {})) == {
            "baseline_fp16", "spikestream_fp16", "spikestream_fp8"
        }

    def test_concurrent_closes_from_many_threads(self):
        session = Session(jobs=2, backend="thread")
        session.run_variants(batch_size=1, seed=2)
        errors = []

        def close():
            try:
                session.close()
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        threads = [threading.Thread(target=close) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors


class TestResultStoreStats:
    def test_stats_tracks_counters_and_occupancy(self):
        session = Session()
        config = spikestream_config(batch_size=1, seed=6)
        stats = session.store.stats()
        assert stats == {
            "hits": 0, "misses": 0, "hit_rate": 0.0, "evictions": 0,
            "disk_evictions": 0, "entries": 0, "total_bytes": 0,
        }
        session.run_inference(config, batch_size=1, seed=6)   # miss
        session.run_inference(config, batch_size=1, seed=6)   # hit
        stats = session.store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["entries"] == 1

    def test_stats_reports_evictions(self):
        session = Session(cache_limit=1)
        config = spikestream_config(batch_size=1, seed=1)
        session.run_inference(config, batch_size=1, seed=1)
        session.run_inference(config, batch_size=1, seed=2)
        stats = session.store.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0

    def test_stats_matches_the_attributes_it_replaces(self):
        store = ResultStore()
        assert store.stats()["hits"] == store.hits
        assert store.stats()["misses"] == store.misses
        assert store.stats()["disk_evictions"] == store.disk_evictions
