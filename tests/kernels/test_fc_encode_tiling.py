"""Tests for the FC kernel, the dense encoding kernel and the tiling planner."""

import numpy as np
import pytest

from repro.formats.convert import compress_vector, decompress_ifmap, decompress_vector
from repro.kernels.encode import EncodeLayerSpec, encode_layer_functional, encode_layer_perf
from repro.kernels.fc import FcLayerSpec, fc_layer_functional, fc_layer_perf
from repro.kernels.tiling import plan_conv_tiles, plan_fc_tiles
from repro.snn.neuron import LIFParameters, LIFState, lif_step
from repro.snn.reference import conv2d_hwc, linear
from repro.types import Precision, TensorShape


class TestFcFunctional:
    def test_matches_dense_reference(self, rng, small_fc_spec):
        weights = rng.normal(size=(64, 16))
        dense_input = rng.random(64) < 0.3
        compressed = compress_vector(dense_input)
        membrane = rng.normal(size=16) * 0.1
        currents, new_membrane, spikes, compressed_out = fc_layer_functional(
            small_fc_spec, compressed, weights, membrane
        )
        reference = linear(dense_input.astype(float), weights)
        assert np.allclose(currents, reference)
        ref_state, ref_spikes = lif_step(LIFState(membrane=membrane.copy()), reference, small_fc_spec.lif)
        assert np.array_equal(spikes, ref_spikes)
        assert np.array_equal(decompress_vector(compressed_out), spikes)

    def test_empty_input(self, rng, small_fc_spec):
        weights = rng.normal(size=(64, 16))
        compressed = compress_vector(np.zeros(64, dtype=bool))
        currents, _, spikes, _ = fc_layer_functional(small_fc_spec, compressed, weights)
        assert np.all(currents == 0)
        assert not spikes.any()

    def test_length_mismatch_rejected(self, rng, small_fc_spec):
        with pytest.raises(ValueError):
            fc_layer_functional(
                small_fc_spec, compress_vector(np.zeros(32, dtype=bool)), rng.normal(size=(64, 16))
            )


class TestFcPerf:
    def test_streaming_faster(self, small_fc_spec):
        base = fc_layer_perf(small_fc_spec, nnz=20, precision=Precision.FP16, streaming=False)
        stream = fc_layer_perf(small_fc_spec, nnz=20, precision=Precision.FP16, streaming=True)
        assert stream.compute_cycles < base.compute_cycles

    def test_large_fc_layer_can_be_dma_bound(self):
        """fc1 of S-VGG11 moves 16 MB of FP16 weights; DMA dominates its runtime."""
        spec = FcLayerSpec(name="fc1", in_features=2048, out_features=4096)
        stats = fc_layer_perf(spec, nnz=120, precision=Precision.FP16, streaming=True)
        assert stats.dma_exposed_cycles > 0
        assert stats.total_cycles > stats.compute_cycles

    def test_nnz_bounds_checked(self, small_fc_spec):
        with pytest.raises(ValueError):
            fc_layer_perf(small_fc_spec, nnz=100, precision=Precision.FP16, streaming=True)

    def test_more_spikes_more_cycles(self, small_fc_spec):
        few = fc_layer_perf(small_fc_spec, nnz=2, precision=Precision.FP16, streaming=False)
        many = fc_layer_perf(small_fc_spec, nnz=50, precision=Precision.FP16, streaming=False)
        assert many.compute_cycles > few.compute_cycles


class TestEncodeFunctional:
    def test_matches_reference_conv(self, rng, small_encode_spec):
        image = rng.random((8, 8, 3))
        weights = rng.normal(size=(3, 3, 3, 8))
        currents, new_membrane, spikes, compressed = encode_layer_functional(
            small_encode_spec, image, weights
        )
        reference = conv2d_hwc(image, weights, stride=1, padding=1)
        assert np.allclose(currents, reference)
        assert np.array_equal(decompress_ifmap(compressed), spikes)

    def test_shape_validation(self, rng, small_encode_spec):
        with pytest.raises(ValueError):
            encode_layer_functional(
                small_encode_spec, rng.random((4, 4, 3)), rng.normal(size=(3, 3, 3, 8))
            )
        with pytest.raises(ValueError):
            encode_layer_functional(
                small_encode_spec, rng.random((8, 8, 3)), rng.normal(size=(3, 3, 3, 4))
            )


class TestEncodePerf:
    def test_streaming_faster_on_small_layer(self, small_encode_spec):
        base = encode_layer_perf(small_encode_spec, Precision.FP16, streaming=False)
        stream = encode_layer_perf(small_encode_spec, Precision.FP16, streaming=True)
        assert stream.compute_cycles < base.compute_cycles
        assert stream.fpu_utilization > base.fpu_utilization

    def test_svgg11_first_layer_utilization_in_paper_band(self):
        """Figure 3b: conv1 utilization goes from ~25 % (baseline) to ~53 % (SpikeStream)."""
        spec = EncodeLayerSpec(
            name="conv1", input_shape=TensorShape(32, 32, 3), in_channels=3, out_channels=64
        )
        base = encode_layer_perf(spec, Precision.FP16, streaming=False)
        stream = encode_layer_perf(spec, Precision.FP16, streaming=True)
        assert 0.18 < base.fpu_utilization < 0.32
        assert 0.45 < stream.fpu_utilization < 0.62

    def test_deterministic(self, small_encode_spec):
        a = encode_layer_perf(small_encode_spec, Precision.FP16, streaming=True)
        b = encode_layer_perf(small_encode_spec, Precision.FP16, streaming=True)
        assert a.total_cycles == b.total_cycles


class TestTiling:
    def test_conv_plan_fits_spm(self):
        spec_input = TensorShape(34, 34, 64)
        output = TensorShape(32, 32, 128)
        plan = plan_conv_tiles(
            input_shape=spec_input,
            output_shape=output,
            kernel_size=3,
            compressed_ifmap_bytes=60_000,
            precision=Precision.FP16,
        )
        weight_tile = plan.channels_per_weight_tile * 3 * 3 * 64 * 2
        assert 2 * weight_tile <= 128 * 1024
        assert plan.num_weight_tiles * plan.channels_per_weight_tile >= output.channels
        assert plan.num_ifmap_bands >= 1
        assert plan.dma_bytes_in > plan.weight_bytes  # weights reloaded per band

    def test_weight_tile_is_simd_multiple(self):
        plan = plan_conv_tiles(
            input_shape=TensorShape(10, 10, 512),
            output_shape=TensorShape(8, 8, 512),
            kernel_size=3,
            compressed_ifmap_bytes=20_000,
            precision=Precision.FP8,
        )
        assert plan.channels_per_weight_tile % Precision.FP8.simd_width == 0

    def test_dma_cycles_positive_and_scale_with_traffic(self):
        small = plan_conv_tiles(
            input_shape=TensorShape(10, 10, 64),
            output_shape=TensorShape(8, 8, 64),
            kernel_size=3,
            compressed_ifmap_bytes=5_000,
            precision=Precision.FP16,
        )
        large = plan_conv_tiles(
            input_shape=TensorShape(10, 10, 512),
            output_shape=TensorShape(8, 8, 512),
            kernel_size=3,
            compressed_ifmap_bytes=20_000,
            precision=Precision.FP16,
        )
        assert large.dma_cycles() > small.dma_cycles() > 0

    def test_fc_plan(self):
        plan = plan_fc_tiles(
            in_features=2048,
            out_features=4096,
            compressed_input_bytes=300,
            precision=Precision.FP16,
        )
        assert plan.weight_bytes == 2048 * 4096 * 2
        assert plan.num_weight_tiles >= 1
        assert plan.dma_bytes_in > plan.weight_bytes * 0.99

    def test_invalid_budget_fraction(self):
        with pytest.raises(ValueError):
            plan_fc_tiles(16, 16, 10, Precision.FP16, weight_budget_fraction=1.5)

    def test_ofmap_worst_case_covers_dense_output(self):
        output = TensorShape(8, 8, 128)
        plan = plan_conv_tiles(
            input_shape=TensorShape(10, 10, 64),
            output_shape=output,
            kernel_size=3,
            compressed_ifmap_bytes=1_000,
            precision=Precision.FP16,
        )
        assert plan.ofmap_worst_case_bytes >= output.numel * 2

    @pytest.mark.parametrize("precision", [Precision.FP8, Precision.FP16, Precision.FP64])
    def test_plans_over_a_batch_of_sizes_match_per_size_plans(self, precision):
        """Each element of a batched plan is the plan of that frame's size."""
        sizes = np.array([0, 100, 5_000, 60_000, 400_000, 2_000_000], dtype=np.int64)
        conv = dict(
            input_shape=TensorShape(34, 34, 64),
            output_shape=TensorShape(32, 32, 128),
            kernel_size=3,
            precision=precision,
        )
        fc = dict(in_features=2048, out_features=512, precision=precision)
        for plan_tiles, keyword, kwargs in (
            (plan_conv_tiles, "compressed_ifmap_bytes", conv),
            (plan_fc_tiles, "compressed_input_bytes", fc),
        ):
            batched = plan_tiles(**{keyword: sizes}, **kwargs)
            for frame, size in enumerate(sizes):
                single = plan_tiles(**{keyword: int(size)}, **kwargs)
                for name, value in vars(single).items():
                    assert np.broadcast_to(getattr(batched, name), sizes.shape)[frame] == value
                assert batched.dma_cycles()[frame] == single.dma_cycles()
                assert np.broadcast_to(batched.num_tiles, sizes.shape)[frame] == single.num_tiles
        if precision is Precision.FP16:  # the sizes span several band counts
            bands = plan_conv_tiles(compressed_ifmap_bytes=sizes, **conv).num_ifmap_bands
            assert len(set(bands.tolist())) > 1
