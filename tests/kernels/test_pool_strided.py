"""Tests for the strided-indirect extension's costing in the conv and SpVA kernels."""

import numpy as np
import pytest

from repro.kernels.conv import ConvLayerSpec, conv_layer_perf
from repro.kernels.spva import streaming_spva_cost
from repro.types import Precision, TensorShape


class TestStridedIndirect:
    def test_spva_cost_override(self):
        standard = streaming_spva_cost(100.0)
        strided = streaming_spva_cost(100.0, cycles_per_element=1.15)
        assert float(strided.cycles) < float(standard.cycles)
        with pytest.raises(ValueError):
            streaming_spva_cost(10.0, cycles_per_element=0.5)

    def test_conv_kernel_benefit(self, rng):
        spec = ConvLayerSpec(
            name="conv6", input_shape=TensorShape(8, 8, 512), in_channels=512, out_channels=512
        )
        counts = np.pad(rng.binomial(512, 0.1, size=(8, 8)).astype(float), 1)
        standard = conv_layer_perf(spec, counts, Precision.FP16, streaming=True)
        strided = conv_layer_perf(
            spec, counts, Precision.FP16, streaming=True, strided_indirect=True
        )
        assert strided.total_cycles < standard.total_cycles
        assert strided.fpu_utilization > standard.fpu_utilization

    def test_requires_streaming(self, rng):
        spec = ConvLayerSpec(
            name="c", input_shape=TensorShape(4, 4, 8), in_channels=8, out_channels=8
        )
        counts = np.pad(rng.binomial(8, 0.3, size=(4, 4)).astype(float), 1)
        with pytest.raises(ValueError, match="streaming"):
            conv_layer_perf(spec, counts, Precision.FP16, streaming=False, strided_indirect=True)
