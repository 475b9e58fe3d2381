"""Unit tests for the timestep scaling of cluster statistics.

``_scale_stats`` multiplies every activity counter of a
:class:`~repro.arch.trace.ClusterStats` by the timestep count (via
``dataclasses.replace``); derived ratios — FPU utilization, IPC — must be
invariant, because repeating the same execution N times changes totals, not
rates.  :meth:`~repro.arch.trace.BatchClusterStats.scaled` is its columnar
form and must agree with it frame by frame.
"""

import numpy as np
import pytest

from repro.core.pipeline import _scale_stats
from repro.kernels.conv import conv_layer_perf, conv_layer_perf_batch
from repro.types import Precision


@pytest.fixture
def stats(small_conv_spec, rng):
    padded = small_conv_spec.padded_input_shape
    counts = rng.binomial(16, 0.3, size=(padded.height, padded.width)).astype(float)
    return conv_layer_perf(small_conv_spec, counts, Precision.FP16, streaming=True)


class TestScaleStats:
    @pytest.mark.parametrize("timesteps", [0, 1])
    def test_zero_and_one_return_unchanged(self, stats, timesteps):
        assert _scale_stats(stats, timesteps) is stats

    @pytest.mark.parametrize("timesteps", [2, 7])
    def test_counters_scale_linearly(self, stats, timesteps):
        scaled = _scale_stats(stats, timesteps)
        assert scaled.total_cycles == stats.total_cycles * timesteps
        assert scaled.dma_cycles == stats.dma_cycles * timesteps
        assert scaled.dma_bytes == stats.dma_bytes * timesteps
        assert scaled.dma_exposed_cycles == stats.dma_exposed_cycles * timesteps
        for core, reference in zip(scaled.core_stats, stats.core_stats):
            assert core.core_id == reference.core_id
            assert core.int_instructions == reference.int_instructions * timesteps
            assert core.fp_instructions == reference.fp_instructions * timesteps
            assert core.total_cycles == reference.total_cycles * timesteps
            assert core.fpu_busy_cycles == reference.fpu_busy_cycles * timesteps
            assert core.stall_cycles == reference.stall_cycles * timesteps
            assert core.spm_accesses == reference.spm_accesses * timesteps
            assert core.ssr_spm_accesses == reference.ssr_spm_accesses * timesteps
            assert core.atomic_operations == reference.atomic_operations * timesteps

    def test_derived_ratios_invariant(self, stats):
        scaled = _scale_stats(stats, 5)
        assert scaled.fpu_utilization == pytest.approx(stats.fpu_utilization, rel=1e-12)
        assert scaled.ipc == pytest.approx(stats.ipc, rel=1e-12)
        for core, reference in zip(scaled.core_stats, stats.core_stats):
            assert core.fpu_utilization == pytest.approx(reference.fpu_utilization, rel=1e-12)
            assert core.ipc == pytest.approx(reference.ipc, rel=1e-12)

    def test_label_and_original_preserved(self, stats):
        total_before = stats.total_cycles
        scaled = _scale_stats(stats, 3)
        assert scaled.label == stats.label
        assert scaled is not stats
        assert scaled.core_stats[0] is not stats.core_stats[0]
        # The input record is untouched (replace builds new records).
        assert stats.total_cycles == total_before

    @pytest.mark.parametrize("timesteps", [1, 3])
    def test_batch_scaling_matches_per_frame_scaling(self, small_conv_spec, rng, timesteps):
        padded = small_conv_spec.padded_input_shape
        counts = rng.binomial(16, 0.3, size=(3, padded.height, padded.width)).astype(float)
        batch = conv_layer_perf_batch(small_conv_spec, counts, Precision.FP16, streaming=True)
        scaled = batch.scaled(timesteps)
        for frame in range(3):
            expected = _scale_stats(batch.frame(frame), timesteps)
            got = scaled.frame(frame)
            assert [vars(core) for core in got.core_stats] == [
                vars(core) for core in expected.core_stats
            ]
            for name in ("dma_cycles", "dma_bytes", "dma_exposed_cycles", "total_cycles", "label"):
                assert getattr(got, name) == getattr(expected, name)
