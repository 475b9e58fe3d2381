"""Tests for the per-core and cluster-level cycle-accounting records."""

import pytest

from repro.arch.trace import ClusterStats, CoreStats


class TestCoreStats:
    def test_ipc_and_utilization(self):
        stats = CoreStats(int_instructions=60, fp_instructions=20, total_cycles=100,
                          fpu_busy_cycles=20)
        assert stats.ipc == pytest.approx(0.8)
        assert stats.fpu_utilization == pytest.approx(0.2)

    def test_zero_cycles_edge_case(self):
        stats = CoreStats()
        assert stats.ipc == 0.0
        assert stats.fpu_utilization == 0.0

    def test_merge_adds_counters(self):
        a = CoreStats(core_id=1, int_instructions=10, total_cycles=20)
        b = CoreStats(core_id=1, int_instructions=5, total_cycles=10)
        merged = a.merge(b)
        assert merged.int_instructions == 15
        assert merged.total_cycles == 30
        assert merged.core_id == 1


class TestClusterStats:
    def _make(self, cycles_per_core, label="test"):
        cores = [
            CoreStats(core_id=i, total_cycles=c, fpu_busy_cycles=c / 2, int_instructions=c / 2,
                      fp_instructions=c / 2)
            for i, c in enumerate(cycles_per_core)
        ]
        return ClusterStats(core_stats=cores, total_cycles=max(cycles_per_core), label=label)

    def test_compute_cycles_is_max_over_cores(self):
        stats = self._make([100, 200, 150])
        assert stats.compute_cycles == 200

    def test_utilization_relative_to_total(self):
        stats = self._make([100, 100])
        assert stats.fpu_utilization == pytest.approx(0.5)

    def test_merge_accumulates_layers(self):
        a = self._make([100, 100])
        b = self._make([50, 60])
        merged = a.merge(b)
        assert merged.total_cycles == 160
        assert merged.core_stats[0].total_cycles == 150

    def test_merge_rejects_core_count_mismatch(self):
        with pytest.raises(ValueError):
            self._make([1, 2]).merge(self._make([1, 2, 3]))

    def test_runtime_seconds(self):
        stats = self._make([1000])
        assert stats.runtime_seconds(1e9) == pytest.approx(1e-6)
