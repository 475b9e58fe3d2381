"""Tests for :mod:`repro.config`."""

import pytest

from repro.config import RunConfig, baseline_config, spikestream_config
from repro.types import OptimizationFlag, Precision


class TestRunConfig:
    def test_defaults_match_paper_evaluation(self):
        config = RunConfig()
        assert config.precision is Precision.FP16
        assert config.batch_size == 128
        assert config.timesteps == 1
        assert config.index_bytes == 2
        assert config.streaming_enabled

    def test_baseline_config_disables_streaming(self):
        config = baseline_config()
        assert not config.streaming_enabled
        assert config.optimizations == OptimizationFlag.baseline()

    def test_spikestream_config_enables_streaming(self):
        config = spikestream_config(Precision.FP8)
        assert config.streaming_enabled
        assert config.precision is Precision.FP8
        assert config.simd_width == 8

    def test_with_precision_returns_new_config(self):
        config = spikestream_config(Precision.FP16)
        other = config.with_precision(Precision.FP8)
        assert config.precision is Precision.FP16
        assert other.precision is Precision.FP8
        assert other.optimizations == config.optimizations

    def test_as_baseline_round_trip(self):
        config = spikestream_config()
        restored = config.as_baseline().with_optimizations(OptimizationFlag.spikestream())
        assert restored.optimizations == config.optimizations

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"timesteps": 0},
            {"index_bytes": 3},
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)
