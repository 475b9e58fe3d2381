"""Tests for the spiking layers and the network container."""

import numpy as np
import pytest

from repro.snn.layers import Flatten, SpikingAvgPool2d, SpikingConv2d, SpikingLinear, SpikingMaxPool2d
from repro.snn.network import SpikingNetwork
from repro.snn.neuron import LIFParameters
from repro.types import LayerKind, TensorShape


class TestLayerShapes:
    def test_conv_same_padding_preserves_spatial_size(self):
        layer = SpikingConv2d(3, 8, kernel_size=3, padding=1)
        assert layer.output_shape(TensorShape(16, 16, 3)) == TensorShape(16, 16, 8)

    def test_conv_padded_input_shape(self):
        layer = SpikingConv2d(3, 8, kernel_size=3, padding=1)
        assert layer.padded_input_shape(TensorShape(32, 32, 3)) == TensorShape(34, 34, 3)

    def test_conv_rejects_channel_mismatch(self):
        layer = SpikingConv2d(3, 8)
        with pytest.raises(ValueError):
            layer.output_shape(TensorShape(8, 8, 4))

    def test_conv_weight_shape_and_count(self):
        layer = SpikingConv2d(4, 6, kernel_size=3)
        assert layer.weight_shape == (3, 3, 4, 6)
        assert layer.num_weights == 3 * 3 * 4 * 6

    def test_conv_initialize_weights(self, rng):
        layer = SpikingConv2d(4, 6)
        layer.initialize(rng)
        assert layer.weights.shape == layer.weight_shape
        assert layer.require_weights() is layer.weights

    def test_conv_require_weights_raises_if_uninitialized(self):
        with pytest.raises(RuntimeError):
            SpikingConv2d(3, 4).require_weights()

    def test_conv_rejects_wrong_weight_shape(self):
        with pytest.raises(ValueError):
            SpikingConv2d(3, 4, weights=np.zeros((3, 3, 3, 5)))

    def test_linear_output_shape(self):
        layer = SpikingLinear(128, 10)
        assert layer.output_shape(TensorShape(1, 1, 128)) == TensorShape(1, 1, 10)

    def test_linear_accepts_flattened_spatial_input(self):
        layer = SpikingLinear(2 * 2 * 8, 10)
        assert layer.output_shape(TensorShape(2, 2, 8)).channels == 10

    def test_linear_rejects_feature_mismatch(self):
        with pytest.raises(ValueError):
            SpikingLinear(16, 4).output_shape(TensorShape(1, 1, 20))

    def test_pool_shapes(self):
        assert SpikingMaxPool2d().output_shape(TensorShape(8, 8, 4)) == TensorShape(4, 4, 4)
        assert SpikingAvgPool2d().output_shape(TensorShape(8, 8, 4)) == TensorShape(4, 4, 4)

    def test_pool_rejects_too_small_input(self):
        with pytest.raises(ValueError):
            SpikingMaxPool2d(kernel_size=4, stride=4).output_shape(TensorShape(2, 2, 1))

    def test_flatten(self):
        assert Flatten().output_shape(TensorShape(2, 3, 4)) == TensorShape(1, 1, 24)

    def test_layer_kinds(self):
        assert SpikingConv2d(1, 1).kind is LayerKind.CONV
        assert SpikingLinear(1, 1).kind is LayerKind.LINEAR
        assert SpikingMaxPool2d().kind is LayerKind.MAXPOOL
        assert Flatten().kind is LayerKind.FLATTEN


class TestSpikingNetwork:
    def test_shapes_propagate(self, tiny_network):
        assert tiny_network.output_shape == TensorShape(1, 1, 5)
        assert tiny_network.weighted_layers == [0, 2, 4]

    def test_forward_produces_records_for_weighted_layers(self, tiny_network, rng):
        frame = rng.random((8, 8, 3))
        activity = tiny_network.forward(frame, timesteps=2)
        assert len(activity.records) == 3 * 2
        assert sorted({r.layer_index for r in activity.records}) == [0, 2, 4]
        assert len([r for r in activity.records if r.timestep == 0]) == 3
        assert len(activity.for_layer(2)) == 2

    def test_record_shapes_consistent(self, tiny_network, rng):
        frame = rng.random((8, 8, 3))
        activity = tiny_network.forward(frame)
        conv2_record = activity.for_layer(2)[0]
        assert conv2_record.input_spikes.shape == (4, 4, 4)
        assert conv2_record.output_spikes.shape == (4, 4, 6)

    def test_encoding_layer_records_currents_not_spikes(self, tiny_network, rng):
        frame = rng.random((8, 8, 3))
        activity = tiny_network.forward(frame)
        record = activity.for_layer(0)[0]
        assert record.input_spikes is None
        assert record.input_currents is not None

    def test_reset_state_clears_membranes(self, tiny_network, rng):
        frame = rng.random((8, 8, 3))
        tiny_network.forward(frame, reset=True)
        membrane_after = tiny_network.membrane_state(0).membrane.copy()
        tiny_network.reset_state()
        assert np.all(tiny_network.membrane_state(0).membrane == 0)
        assert membrane_after.shape == tiny_network.membrane_state(0).membrane.shape

    def test_state_persists_across_timesteps_without_reset(self, tiny_network, rng):
        frame = rng.random((8, 8, 3)) * 0.1
        tiny_network.forward(frame, reset=True)
        state_one = tiny_network.membrane_state(0).membrane.copy()
        tiny_network.forward(frame, reset=False)
        state_two = tiny_network.membrane_state(0).membrane
        assert not np.allclose(state_one, state_two)

    def test_forward_matches_manual_reference(self, rng):
        """One conv layer network must match an explicit LIF + conv computation."""
        from repro.snn.reference import conv2d_hwc

        lif = LIFParameters(alpha=0.8, v_threshold=0.6)
        conv = SpikingConv2d(2, 3, kernel_size=3, padding=1, lif=lif, encodes_input=True, name="c")
        conv.initialize(rng)
        network = SpikingNetwork([conv], input_shape=TensorShape(6, 6, 2))
        frame = rng.random((6, 6, 2))
        activity = network.forward(frame)
        currents = conv2d_hwc(frame, conv.weights, padding=1)
        expected_spikes = currents >= lif.v_threshold
        assert np.array_equal(activity.records[0].output_spikes, expected_spikes)

    def test_predict_returns_valid_class(self, tiny_network, rng):
        frame = rng.random((8, 8, 3))
        assert 0 <= tiny_network.predict(frame, timesteps=3) < 5

    def test_invalid_timesteps_rejected(self, tiny_network, rng):
        with pytest.raises(ValueError):
            tiny_network.forward(rng.random((8, 8, 3)), timesteps=0)
