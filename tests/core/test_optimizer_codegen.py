"""Tests for the SpikeStream optimizer, layer plans and code generation."""

import pytest

from repro.config import baseline_config, spikestream_config
from repro.core.layer_mapping import KernelKind, LayerPlan
from repro.core.optimizer import SpikeStreamOptimizer
from repro.kernels.conv import ConvLayerSpec
from repro.kernels.encode import EncodeLayerSpec
from repro.kernels.fc import FcLayerSpec
from repro.arch.params import ClusterParams
from repro.types import Precision, StreamKind, TensorShape


class TestOptimizerSvgg11:
    def test_plans_all_eleven_layers(self):
        plans = SpikeStreamOptimizer(spikestream_config()).plan_svgg11()
        assert len(plans) == 11
        assert [p.name for p in plans][:3] == ["conv1", "conv2", "conv3"]

    def test_first_layer_uses_dense_affine_streams(self):
        plans = SpikeStreamOptimizer(spikestream_config()).plan_svgg11()
        first = plans[0]
        assert first.kernel is KernelKind.ENCODE
        assert isinstance(first.spec, EncodeLayerSpec)
        assert first.stream_kinds == [StreamKind.AFFINE, StreamKind.AFFINE]
        assert not first.uses_indirect_stream

    def test_conv_layers_use_indirect_stream(self):
        plans = SpikeStreamOptimizer(spikestream_config()).plan_svgg11()
        conv_plan = plans[1]
        assert conv_plan.kernel is KernelKind.CONV
        assert isinstance(conv_plan.spec, ConvLayerSpec)
        assert conv_plan.uses_indirect_stream

    def test_fc_layers_planned_last(self):
        plans = SpikeStreamOptimizer(spikestream_config()).plan_svgg11()
        assert all(p.kernel is KernelKind.FC for p in plans[-3:])
        assert isinstance(plans[-1].spec, FcLayerSpec)

    def test_baseline_config_disables_streams(self):
        plans = SpikeStreamOptimizer(baseline_config()).plan_svgg11()
        assert all(not p.streaming for p in plans)
        assert all(p.stream_kinds == [] for p in plans)

    def test_firing_rate_override(self):
        plans = SpikeStreamOptimizer(spikestream_config()).plan_svgg11({"conv3": 0.77})
        assert [p for p in plans if p.name == "conv3"][0].firing_rate == 0.77

    def test_unknown_firing_rate_layer_rejected(self):
        optimizer = SpikeStreamOptimizer(spikestream_config())
        with pytest.raises(ValueError, match=r"\['conv_2'\].*valid names: \['conv1', 'conv2'"):
            optimizer.plan_svgg11({"conv_2": 0.9, "conv3": 0.2})

    def test_precision_propagates_to_plans(self):
        plans = SpikeStreamOptimizer(spikestream_config(Precision.FP8)).plan_svgg11()
        assert all(p.precision is Precision.FP8 for p in plans)
        assert plans[1].simd_width == 8

    def test_streaming_requires_indirect_capable_cluster(self):
        cluster = ClusterParams(num_indirect_stream_registers=0)
        with pytest.raises(ValueError, match="indirect stream register"):
            SpikeStreamOptimizer(spikestream_config(), cluster)

    def test_unsupported_index_width_rejected(self):
        config = spikestream_config()
        cluster = ClusterParams(supported_index_bits=(8,))
        with pytest.raises(ValueError, match="indices"):
            SpikeStreamOptimizer(config, cluster)


class TestOptimizerNetwork:
    def test_plan_network_matches_layers(self, tiny_network):
        plans = SpikeStreamOptimizer(spikestream_config()).plan_network(tiny_network)
        assert [p.name for p in plans] == ["conv1", "conv2", "fc1"]
        assert plans[0].kernel is KernelKind.ENCODE
        assert plans[1].kernel is KernelKind.CONV
        assert plans[2].kernel is KernelKind.FC


class TestLayerPlanValidation:
    def test_spec_type_checked(self):
        with pytest.raises(TypeError):
            LayerPlan(
                name="bad",
                kernel=KernelKind.CONV,
                spec=FcLayerSpec(name="fc", in_features=4, out_features=4),
                precision=Precision.FP16,
                streaming=True,
            )

    def test_firing_rate_bounds(self):
        spec = ConvLayerSpec(
            name="c", input_shape=TensorShape(4, 4, 2), in_channels=2, out_channels=2
        )
        with pytest.raises(ValueError):
            LayerPlan(
                name="c", kernel=KernelKind.CONV, spec=spec, precision=Precision.FP16,
                streaming=True, firing_rate=1.5,
            )
