"""The serving telemetry registry: counters, gauges, histograms, snapshots."""

import json
import threading

import pytest

from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("requests")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc()
        gauge.dec(4)
        assert gauge.value == 7.0


class TestHistogram:
    def test_summary_counts_and_percentiles(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == pytest.approx(50.0, abs=1.0)
        assert summary["p95"] == pytest.approx(95.0, abs=1.0)
        assert summary["p99"] == pytest.approx(99.0, abs=1.0)

    def test_empty_histogram_is_safe(self):
        histogram = MetricsRegistry().histogram("latency")
        assert histogram.percentile(50.0) == 0.0
        assert histogram.summary()["count"] == 0

    def test_percentile_bounds_checked(self):
        histogram = MetricsRegistry().histogram("latency")
        with pytest.raises(ValueError, match="0, 100"):
            histogram.percentile(101.0)

    def test_reservoir_bounds_memory_but_keeps_stats_exact(self):
        histogram = MetricsRegistry().histogram("latency", max_samples=16)
        for value in range(1000):
            histogram.observe(float(value))
        # count/sum/min/max are exact regardless of sampling...
        assert histogram.count == 1000
        assert histogram.min == 0.0
        assert histogram.max == 999.0
        # ...while the retained sample stays bounded.
        assert len(histogram._sorted) == 16

    def test_rejects_empty_reservoir(self):
        with pytest.raises(ValueError, match="positive"):
            MetricsRegistry().histogram("latency", max_samples=0)

    def test_reset_restores_pristine_state(self):
        histogram = MetricsRegistry().histogram("latency", max_samples=16)
        for value in range(1000):
            histogram.observe(float(value))
        retained_first = list(histogram._sorted)
        histogram.reset()
        assert histogram.count == 0
        assert histogram.sum == 0.0
        assert histogram.min is None and histogram.max is None
        assert histogram.summary()["count"] == 0
        assert histogram.percentile(50.0) == 0.0
        # Re-seeded reservoir: replaying the same stream retains the same
        # sample as the first pass — reset is indistinguishable from a
        # fresh construction.
        for value in range(1000):
            histogram.observe(float(value))
        assert list(histogram._sorted) == retained_first


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            registry.gauge("x")

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("served").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("latency").observe(1.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["served"] == 3
        assert snapshot["depth"] == 2
        assert snapshot["latency"]["count"] == 1

    def test_probe_flattens_live_values(self):
        registry = MetricsRegistry()
        state = {"hits": 0}
        registry.add_probe("store", lambda: dict(state))
        state["hits"] = 7
        assert registry.snapshot()["store"] == {"hits": 7}

    def test_dead_probe_does_not_kill_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("ok").inc()

        def broken():
            raise RuntimeError("probe died")

        registry.add_probe("bad", broken)
        snapshot = registry.snapshot()
        assert snapshot["ok"] == 1
        assert "error" in snapshot["bad"]

    def test_concurrent_increments_are_atomic(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        histogram = registry.histogram("h")

        def hammer():
            for _ in range(1000):
                counter.inc()
                histogram.observe(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000
        assert histogram.count == 8000
