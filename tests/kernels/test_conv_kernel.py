"""Tests for the compressed convolution kernel (functional and performance)."""

import numpy as np
import pytest

from repro.arch.params import ClusterParams
from repro.formats.convert import compress_ifmap, decompress_ifmap
from repro.kernels.conv import (
    ConvLayerSpec,
    conv_layer_functional,
    conv_layer_perf,
    conv_layer_perf_batch,
    window_sum,
)
from repro.snn.neuron import LIFParameters, LIFState, lif_step
from repro.snn.reference import conv2d_hwc, pad_hwc
from repro.types import Precision, TensorShape


class TestWindowSum:
    def test_matches_naive_implementation(self, rng):
        values = rng.integers(0, 10, size=(9, 11)).astype(float)
        kernel, stride = 3, 2
        result = window_sum(values, kernel, stride)
        out_h = (9 - kernel) // stride + 1
        out_w = (11 - kernel) // stride + 1
        assert result.shape == (out_h, out_w)
        for oy in range(out_h):
            for ox in range(out_w):
                expected = values[oy * stride : oy * stride + kernel, ox * stride : ox * stride + kernel].sum()
                assert result[oy, ox] == pytest.approx(expected)

    def test_kernel_larger_than_map_rejected(self):
        with pytest.raises(ValueError):
            window_sum(np.zeros((2, 2)), 3, 1)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            window_sum(np.zeros(4), 1, 1)


class TestConvLayerSpec:
    def test_shapes(self, small_conv_spec):
        assert small_conv_spec.padded_input_shape == TensorShape(10, 10, 16)
        assert small_conv_spec.output_shape == TensorShape(8, 8, 8)
        assert small_conv_spec.weight_shape == (3, 3, 16, 8)
        assert small_conv_spec.weight_bytes(Precision.FP16) == 3 * 3 * 16 * 8 * 2

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConvLayerSpec(
                name="bad", input_shape=TensorShape(4, 4, 3), in_channels=4, out_channels=2
            )


class TestConvFunctional:
    def test_matches_dense_golden_reference(self, rng, small_conv_spec, small_compressed_ifmap):
        """The gather-based kernel must equal the dense im2row reference exactly."""
        weights = rng.normal(size=small_conv_spec.weight_shape)
        membrane = rng.normal(size=small_conv_spec.output_shape.as_tuple()) * 0.1
        currents, new_membrane, spikes, compressed_out = conv_layer_functional(
            small_conv_spec, small_compressed_ifmap, weights, membrane
        )
        # Golden model: dense convolution on the decompressed (already padded)
        # ifmap followed by the LIF update.
        dense_input = decompress_ifmap(small_compressed_ifmap)
        reference_currents = conv2d_hwc(dense_input, weights, stride=1, padding=0)
        assert np.allclose(currents, reference_currents)
        ref_state, ref_spikes = lif_step(
            LIFState(membrane=membrane.copy()), reference_currents, small_conv_spec.lif
        )
        assert np.array_equal(spikes, ref_spikes)
        assert np.allclose(new_membrane, ref_state.membrane)

    def test_compressed_output_round_trips(self, rng, small_conv_spec, small_compressed_ifmap):
        weights = rng.normal(size=small_conv_spec.weight_shape)
        _, _, spikes, compressed_out = conv_layer_functional(
            small_conv_spec, small_compressed_ifmap, weights
        )
        assert np.array_equal(decompress_ifmap(compressed_out), spikes)

    def test_empty_ifmap_produces_no_currents(self, rng, small_conv_spec):
        padded = small_conv_spec.padded_input_shape
        empty = compress_ifmap(np.zeros(padded.as_tuple(), dtype=bool))
        weights = rng.normal(size=small_conv_spec.weight_shape)
        currents, _, spikes, _ = conv_layer_functional(small_conv_spec, empty, weights)
        assert np.all(currents == 0)
        assert not spikes.any()

    def test_wrong_weight_shape_rejected(self, rng, small_conv_spec, small_compressed_ifmap):
        with pytest.raises(ValueError):
            conv_layer_functional(
                small_conv_spec, small_compressed_ifmap, rng.normal(size=(3, 3, 16, 4))
            )

    def test_wrong_ifmap_shape_rejected(self, rng, small_conv_spec):
        wrong = compress_ifmap(np.zeros((4, 4, 16), dtype=bool))
        with pytest.raises(ValueError):
            conv_layer_functional(small_conv_spec, wrong, rng.normal(size=small_conv_spec.weight_shape))

    def test_quantized_precision_stays_close_to_reference(
        self, rng, small_conv_spec, small_compressed_ifmap
    ):
        weights = rng.normal(size=small_conv_spec.weight_shape) * 0.1
        full, _, _, _ = conv_layer_functional(
            small_conv_spec, small_compressed_ifmap, weights, precision=Precision.FP64
        )
        # FP16 quantization only affects the activation, not the gathered sums.
        _, _, spikes16, _ = conv_layer_functional(
            small_conv_spec, small_compressed_ifmap, weights, precision=Precision.FP16
        )
        assert spikes16.shape == full.shape


class TestConvPerf:
    def _counts(self, spec, rate, rng):
        unpadded = spec.input_shape
        counts = rng.binomial(unpadded.channels, rate, size=(unpadded.height, unpadded.width))
        return np.pad(counts.astype(float), spec.padding)

    def test_streaming_faster_than_baseline(self, rng, small_conv_spec):
        counts = self._counts(small_conv_spec, 0.3, rng)
        base = conv_layer_perf(small_conv_spec, counts, Precision.FP16, streaming=False)
        stream = conv_layer_perf(small_conv_spec, counts, Precision.FP16, streaming=True)
        assert stream.total_cycles < base.total_cycles
        assert stream.fpu_utilization > base.fpu_utilization

    def test_perf_scales_with_firing_rate(self, rng, small_conv_spec):
        sparse = conv_layer_perf(
            small_conv_spec, self._counts(small_conv_spec, 0.05, rng), Precision.FP16, True
        )
        dense = conv_layer_perf(
            small_conv_spec, self._counts(small_conv_spec, 0.6, rng), Precision.FP16, True
        )
        assert dense.total_cycles > sparse.total_cycles

    def test_fp8_halves_fp_work(self, rng):
        spec = ConvLayerSpec(
            name="deep", input_shape=TensorShape(8, 8, 256), in_channels=256, out_channels=128
        )
        counts = self._counts(spec, 0.2, rng)
        fp16 = conv_layer_perf(spec, counts, Precision.FP16, streaming=True)
        fp8 = conv_layer_perf(spec, counts, Precision.FP8, streaming=True)
        assert fp8.total_fp_instructions == pytest.approx(fp16.total_fp_instructions / 2, rel=0.05)
        assert 1.3 < fp16.total_cycles / fp8.total_cycles <= 2.05

    def test_stats_structure(self, rng, small_conv_spec):
        counts = self._counts(small_conv_spec, 0.3, rng)
        stats = conv_layer_perf(small_conv_spec, counts, Precision.FP16, streaming=True)
        assert len(stats.core_stats) == 8
        assert stats.total_cycles >= stats.compute_cycles
        assert stats.dma_bytes > 0
        assert 0.0 < stats.fpu_utilization < 1.0
        assert "spikestream" in stats.label

    def test_fewer_cores_take_longer(self, rng, small_conv_spec):
        counts = self._counts(small_conv_spec, 0.3, rng)
        eight = conv_layer_perf(small_conv_spec, counts, Precision.FP16, streaming=True)
        two = conv_layer_perf(
            small_conv_spec,
            counts,
            Precision.FP16,
            streaming=True,
            params=ClusterParams(num_worker_cores=2),
            num_active_cores=2,
        )
        assert two.compute_cycles > eight.compute_cycles

    def test_counts_shape_validated(self, rng, small_conv_spec):
        with pytest.raises(ValueError):
            conv_layer_perf(small_conv_spec, np.zeros((3, 3)), Precision.FP16, streaming=True)

    def test_zero_activity_layer_still_has_overhead(self, small_conv_spec):
        padded = small_conv_spec.padded_input_shape
        counts = np.zeros((padded.height, padded.width))
        stats = conv_layer_perf(small_conv_spec, counts, Precision.FP16, streaming=True)
        assert stats.total_cycles > 0
        assert stats.total_fp_instructions > 0  # activation FP work remains

    def test_counts_above_in_channels_rejected(self):
        """A position cannot hold more spikes than the layer has input
        channels; both kernels refuse to price such a map."""
        spec = ConvLayerSpec(
            name="c", input_shape=TensorShape(4, 4, 8), in_channels=8, out_channels=8
        )
        padded = spec.padded_input_shape
        impossible = np.full((padded.height, padded.width), 50.0)
        with pytest.raises(ValueError, match="in_channels"):
            conv_layer_perf(spec, impossible, Precision.FP16, streaming=True)
        with pytest.raises(ValueError, match="in_channels"):
            conv_layer_perf_batch(spec, impossible[None], Precision.FP16, streaming=True)
        one_over = np.zeros((2, padded.height, padded.width))
        one_over[1, 2, 3] = spec.in_channels + 1
        with pytest.raises(ValueError, match="in_channels"):
            conv_layer_perf_batch(spec, one_over, Precision.FP16, streaming=False)
        full = np.full((padded.height, padded.width), float(spec.in_channels))
        assert conv_layer_perf(spec, full, Precision.FP16, streaming=True).total_cycles > 0
        assert conv_layer_perf_batch(
            spec, full[None], Precision.FP16, streaming=True
        ).total_cycles[0] > 0
