"""Tests for the workload-stealing scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.scheduler import workload_stealing_schedule


class TestWorkloadStealing:
    def test_every_rf_processed_exactly_once(self, rng):
        costs = rng.integers(1, 100, size=50).astype(float)
        schedule = workload_stealing_schedule(costs, num_cores=8)
        processed = sorted(i for core in schedule.assignments for i in core)
        assert processed == list(range(50))

    def test_busy_cycles_sum_to_total_work(self, rng):
        costs = rng.integers(1, 100, size=64).astype(float)
        schedule = workload_stealing_schedule(costs, num_cores=8)
        assert schedule.core_busy_cycles.sum() == pytest.approx(costs.sum())

    def test_makespan_bounds(self, rng):
        """Greedy stealing is within (max cost) of the ideal balanced makespan."""
        costs = rng.integers(1, 200, size=128).astype(float)
        schedule = workload_stealing_schedule(costs, num_cores=8)
        ideal = costs.sum() / 8
        assert schedule.makespan >= ideal
        assert schedule.makespan <= ideal + costs.max() + 8 * 0  # list-scheduling bound

    def test_stealing_beats_static_partition_on_imbalanced_work(self):
        # Front-loaded costs: a static block partition overloads the first core.
        costs = np.concatenate([np.full(32, 100.0), np.full(96, 1.0)])
        stealing = workload_stealing_schedule(costs, num_cores=4)
        static = workload_stealing_schedule(costs, num_cores=4, static=True)
        assert stealing.makespan < static.makespan

    def test_atomic_cost_increases_finish_time(self, rng):
        costs = rng.integers(1, 50, size=40).astype(float)
        without = workload_stealing_schedule(costs, num_cores=4, atomic_cost_cycles=0.0)
        with_atomics = workload_stealing_schedule(costs, num_cores=4, atomic_cost_cycles=4.0)
        assert with_atomics.makespan >= without.makespan
        assert with_atomics.atomic_operations_per_core.sum() == 40

    def test_single_core_processes_everything_sequentially(self):
        costs = [5.0, 10.0, 15.0]
        schedule = workload_stealing_schedule(costs, num_cores=1)
        assert schedule.makespan == pytest.approx(30.0)
        assert schedule.assignments[0] == [0, 1, 2]

    def test_more_cores_than_work(self):
        schedule = workload_stealing_schedule([10.0, 20.0], num_cores=8)
        assert schedule.makespan == pytest.approx(20.0)
        assert sum(len(core) for core in schedule.assignments) == 2

    def test_empty_work(self):
        schedule = workload_stealing_schedule([], num_cores=4)
        assert schedule.makespan == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            workload_stealing_schedule([1.0], num_cores=0)
        with pytest.raises(ValueError):
            workload_stealing_schedule([-1.0], num_cores=2)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                workload_stealing_schedule([5.0, bad, 1.0, 2.0, 3.0, 4.0], num_cores=2)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        count=st.integers(1, 200),
        cores=st.integers(1, 16),
    )
    def test_property_completeness_and_balance(self, seed, count, cores):
        """Each RF is assigned exactly once and no core exceeds the list-scheduling bound."""
        rng = np.random.default_rng(seed)
        costs = rng.integers(1, 1000, size=count).astype(float)
        schedule = workload_stealing_schedule(costs, num_cores=cores)
        processed = sorted(i for core in schedule.assignments for i in core)
        assert processed == list(range(count))
        ideal = costs.sum() / cores
        assert schedule.makespan <= ideal + costs.max()
