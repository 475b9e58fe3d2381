"""Tests for the metric helpers, text reporting and experiment drivers."""

import pytest

from repro.eval.metrics import ratio
from repro.eval.reporting import format_table, render_experiment
from repro.eval.experiments import (
    memory_footprint_experiment,
    speedup_experiment,
    spva_microbenchmark_experiment,
    utilization_experiment,
    energy_experiment,
)
from repro.session import Session
from repro.types import Precision


class TestMetrics:
    def test_ratio(self):
        assert ratio(10, 2) == 5
        assert ratio(1, 0) == float("inf")
        assert ratio(0, 0) == 1.0

class TestReporting:
    def test_format_table_alignment_and_content(self):
        rows = [{"layer": "conv1", "speedup": 5.1234}, {"layer": "conv2", "speedup": 6.0}]
        table = format_table(rows)
        assert "layer" in table and "conv1" in table and "5.123" in table
        assert table.count("\n") >= 3

    def test_format_table_empty(self):
        assert format_table([]) == "(no data)"

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        table = format_table(rows, columns=["b"])
        assert "b" in table and "a" not in table.splitlines()[0]

    def test_render_experiment_includes_title_and_notes(self):
        text = render_experiment("Fig 3a", [{"x": 1}], notes="shape only")
        assert text.startswith("== Fig 3a ==")
        assert "shape only" in text


class TestFigureExperiments:
    @pytest.fixture(scope="class")
    def variants(self):
        return Session().run_variants(batch_size=2, seed=11)

    def test_memory_footprint_rows_and_reduction(self):
        result = memory_footprint_experiment(batch_size=4, seed=1)
        assert len(result.rows) == 8
        assert {"layer", "aer_bytes_mean", "csr_bytes_mean", "reduction"} <= set(result.rows[0])
        # Every spiking layer must individually favour the CSR format.
        for row in result.rows[1:]:
            assert row["reduction"] > 1.5

    def test_memory_footprint_rejects_empty_batch(self):
        # Same contract as Session.run_variants and the engine: no NaN rows.
        with pytest.raises(ValueError, match="batch_size must be positive, got 0"):
            memory_footprint_experiment(batch_size=0)

    def test_utilization_experiment(self, variants):
        result = utilization_experiment(variants=variants)
        assert len(result.rows) == 11
        for row in result.rows:
            assert 0.0 <= row["fpu_util_baseline"] <= 1.0
            assert row["fpu_util_spikestream"] >= row["fpu_util_baseline"]

    def test_speedup_experiment(self, variants):
        result = speedup_experiment(variants=variants)
        assert len(result.rows) == 11
        assert result.headline["peak_layer_speedup_fp16_over_baseline"] == max(
            row["speedup_fp16_over_baseline"] for row in result.rows
        )

    def test_energy_experiment(self, variants):
        result = energy_experiment(variants=variants)
        headline = result.headline
        assert headline["mean_power_spikestream_fp8_conv2_to_8"] < headline[
            "mean_power_spikestream_fp16_conv2_to_8"
        ]
        # SpikeStream consumes more power but less energy than the baseline.
        for row in result.rows:
            assert row["power_w_spikestream_fp16"] > row["power_w_baseline"]
            assert row["energy_mj_spikestream_fp16"] < row["energy_mj_baseline"]

    def test_spva_microbenchmark(self):
        result = spva_microbenchmark_experiment(stream_lengths=(1, 8, 64))
        assert [row["stream_length"] for row in result.rows] == [1, 8, 64]
        speedups = [row["speedup"] for row in result.rows]
        assert speedups == sorted(speedups)
        assert result.headline["asymptotic_speedup"] == speedups[-1]


class TestSweeps:
    """Behaviour of individual registered sweeps; the core-count sweep's
    scaling and 1-core anchor are covered in ``test_runner.py``."""

    def test_firing_rate_sweep_monotone_cycles(self):
        result = Session().run("firing_rate", rates=(0.05, 0.2, 0.4), seed=3)
        cycles = [row["spikestream_cycles"] for row in result.rows]
        assert cycles == sorted(cycles)

    def test_precision_sweep(self):
        result = Session().run("precision", batch_size=1, seed=4)
        runtimes = {row["precision"]: row["runtime_ms"] for row in result.rows}
        assert runtimes["fp8"] < runtimes["fp16"] < runtimes["fp32"]

    def test_precision_sweep_headline_order_independent(self):
        # Regression: the headline indexed rows[-2]/rows[-1], reporting a
        # wrong ratio whenever the caller reordered or subset the precisions.
        session = Session()
        default = session.run("precision", batch_size=1, seed=4)
        reordered = session.run(
            "precision", precisions=(Precision.FP8, Precision.FP32, Precision.FP16),
            batch_size=1, seed=4,
        )
        assert reordered.headline["fp8_over_fp16_speedup"] == pytest.approx(
            default.headline["fp8_over_fp16_speedup"]
        )
        assert default.headline["fp8_over_fp16_speedup"] > 1.0

    def test_precision_sweep_headline_omitted_when_precision_absent(self):
        result = Session().run("precision", precisions=(Precision.FP32, Precision.FP16),
                               batch_size=1, seed=4)
        assert "fp8_over_fp16_speedup" not in result.headline

    def test_stream_length_sweep(self):
        result = Session().run("stream_length", lengths=(1, 16, 256))
        speedups = [row["speedup"] for row in result.rows]
        assert speedups == sorted(speedups)
