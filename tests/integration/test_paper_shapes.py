"""Integration: the headline results of the paper hold in shape.

These tests run the same experiments as the benchmark harness (with small
batches) and assert that "who wins, by roughly what factor" matches the
numbers quoted in the paper's abstract, Section IV and the conclusions.
Bands are deliberately loose: the substrate is a behavioral model, not the
authors' RTL testbed.
"""

import pytest

from repro.eval.experiments import (
    accelerator_comparison_experiment,
    energy_experiment,
    memory_footprint_experiment,
    speedup_experiment,
    utilization_experiment,
)
from repro.session import Session


@pytest.fixture(scope="module")
def variants():
    return Session().run_variants(batch_size=3, seed=42)


class TestFigure3aShape:
    def test_csr_always_smaller_and_average_reduction_band(self):
        result = memory_footprint_experiment(batch_size=8, seed=42)
        assert 2.0 <= result.headline["mean_csr_over_aer_reduction"] <= 4.0


class TestFigure3bShape:
    def test_utilization_jump(self, variants):
        result = utilization_experiment(variants=variants)
        baseline = result.headline["network_fpu_util_baseline"]
        spikestream = result.headline["network_fpu_util_spikestream"]
        # Paper: 9.28 % -> 52.3 %; require a >4x improvement landing near 50 %.
        assert spikestream / baseline > 4.0
        assert 0.35 <= spikestream <= 0.60
        assert 0.05 <= baseline <= 0.15

    def test_first_layer_utilization(self, variants):
        result = utilization_experiment(variants=variants)
        assert 0.18 <= result.headline["encode_fpu_util_baseline"] <= 0.32
        assert 0.45 <= result.headline["encode_fpu_util_spikestream"] <= 0.62

    def test_second_layer_has_lowest_spikestream_conv_utilization_gainers(self, variants):
        """Deeper conv layers gain more utilization than the early short-stream layers."""
        result = utilization_experiment(variants=variants)
        conv_rows = [r for r in result.rows if r["layer"].startswith("conv")][1:]
        early = conv_rows[0]["fpu_util_spikestream"]
        deep = max(r["fpu_util_spikestream"] for r in conv_rows[1:6])
        assert deep >= early - 0.05


class TestFigure3cShape:
    def test_network_speedups(self, variants):
        result = speedup_experiment(variants=variants)
        headline = result.headline
        # Paper: 5.62x average FP16 speedup, layers 3-6 approaching the 7x ideal,
        # FP8 a further 1.71x (below the ideal 2x).
        assert 4.5 <= headline["network_speedup_fp16_over_baseline"] <= 7.0
        assert 5.5 <= headline["peak_layer_speedup_fp16_over_baseline"] <= 8.0
        assert 1.3 <= headline["network_speedup_fp8_over_fp16"] <= 2.0
        assert headline["network_speedup_fp8_over_baseline"] >= 7.0

    def test_deep_layers_faster_than_early_layers(self, variants):
        result = speedup_experiment(variants=variants)
        rows = {r["layer"]: r["speedup_fp16_over_baseline"] for r in result.rows}
        assert rows["conv4"] > rows["conv1"]
        assert rows["conv3"] > 5.0


class TestFigure4Shape:
    def test_power_and_energy_relations(self, variants):
        result = energy_experiment(variants=variants)
        headline = result.headline
        base_power = headline["mean_power_baseline_conv2_to_8"]
        ss16_power = headline["mean_power_spikestream_fp16_conv2_to_8"]
        ss8_power = headline["mean_power_spikestream_fp8_conv2_to_8"]
        # SpikeStream draws more power than the baseline (higher utilization)
        # but FP8 draws slightly less than FP16 (clock-gated narrow slices).
        assert ss16_power > base_power
        assert ss8_power < ss16_power
        assert 1.4 < ss16_power / base_power < 2.6
        # Energy-efficiency gains of the full inference.
        assert 2.0 < headline["energy_gain_fp16_over_baseline"] < 4.5
        assert 4.0 < headline["energy_gain_fp8_over_baseline"] < 8.0
        assert headline["energy_gain_fp8_over_fp16"] < 2.3

    def test_first_layer_has_highest_power(self, variants):
        """Figure 4: the dense matmul encoding layer draws the most power."""
        result = energy_experiment(variants=variants)
        first = result.rows[0]
        others = result.rows[1:8]
        assert all(first["power_w_spikestream_fp16"] >= r["power_w_spikestream_fp16"] for r in others)

    def test_conv_layers_dominate_energy(self, variants):
        result = energy_experiment(variants=variants)
        assert result.headline["conv_energy_fraction_baseline"] > 0.7


class TestFigure5Shape:
    @pytest.fixture(scope="class")
    def comparison(self):
        return accelerator_comparison_experiment(timesteps=500, batch_size=2, seed=7)

    def test_latency_ordering_and_factors(self, comparison):
        headline = comparison.headline
        # Paper: LSMCore 46.08 ms, SpikeStream FP8 217.14 ms (4.71x slower),
        # FP8 2.38x faster than Loihi, FP16 1.31x faster than Loihi.
        assert 3.0 < headline["fp8_slowdown_vs_lsmcore"] < 7.0
        assert 1.5 < headline["fp8_speedup_vs_loihi"] < 3.5
        assert 1.0 < headline["fp16_speedup_vs_loihi"] < 2.0

    def test_absolute_latencies_same_order_of_magnitude(self, comparison):
        headline = comparison.headline
        assert 20 < headline["lsmcore_latency_ms"] < 100
        assert 100 < headline["spikestream_fp8_latency_ms"] < 500

    def test_energy_gains_over_lsmcore(self, comparison):
        headline = comparison.headline
        # Paper: 2.37x (FP16) and 3.46x (FP8) less energy than LSMCore.
        assert 1.3 < headline["fp16_energy_gain_vs_lsmcore"] < 3.5
        assert 2.0 < headline["fp8_energy_gain_vs_lsmcore"] < 6.0
