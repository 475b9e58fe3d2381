"""Tests for the S-VGG11 model description."""

import pytest

from repro.snn.svgg11 import (
    SVGG11_CONV_CHANNELS,
    SVGG11_LAYER_FIRING_RATES,
    build_svgg11,
    layer_names,
    svgg11_layer_shapes,
)
from repro.types import TensorShape


class TestLayerShapes:
    def test_eleven_weighted_layers(self):
        descriptions = svgg11_layer_shapes()
        assert len(descriptions) == 11
        assert sum(1 for d in descriptions if d["kind"] == "conv") == 8
        assert sum(1 for d in descriptions if d["kind"] == "linear") == 3

    def test_padded_ifmap_shapes_match_figure_3a(self):
        """The first six conv ifmaps are exactly those listed on the x-axis of Fig. 3a."""
        shapes = [
            d["padded_input_shape"] for d in svgg11_layer_shapes() if d["kind"] == "conv"
        ]
        expected = [
            TensorShape(34, 34, 3),
            TensorShape(34, 34, 64),
            TensorShape(18, 18, 128),
            TensorShape(18, 18, 256),
            TensorShape(10, 10, 256),
            TensorShape(10, 10, 512),
        ]
        assert shapes[:6] == expected

    def test_conv_channels_follow_vgg11(self):
        descriptions = [d for d in svgg11_layer_shapes() if d["kind"] == "conv"]
        assert tuple(d["out_channels"] for d in descriptions) == SVGG11_CONV_CHANNELS

    def test_only_first_layer_encodes(self):
        descriptions = svgg11_layer_shapes()
        assert descriptions[0]["encodes_input"]
        assert not any(d["encodes_input"] for d in descriptions[1:])

    def test_fc_chain_dimensions(self):
        fc = [d for d in svgg11_layer_shapes() if d["kind"] == "linear"]
        assert fc[0]["in_channels"] == 2 * 2 * 512
        assert fc[0]["out_channels"] == 4096
        assert fc[-1]["out_channels"] == 10

    def test_firing_rates_defined_for_every_layer(self):
        for description in svgg11_layer_shapes():
            assert description["name"] in SVGG11_LAYER_FIRING_RATES

    def test_firing_rates_decrease_with_conv_depth(self):
        rates = [SVGG11_LAYER_FIRING_RATES[f"conv{i}"] for i in range(2, 9)]
        assert rates == sorted(rates, reverse=True)

    def test_layer_names_order(self):
        names = layer_names()
        assert names[0] == "conv1"
        assert names[-1] == "fc3"
        assert len(layer_names(include_fc=False)) == 8


class TestBuildSvgg11:
    @pytest.fixture(scope="class")
    def network(self):
        return build_svgg11(rng=0)

    def test_output_is_ten_classes(self, network):
        assert network.output_shape == TensorShape(1, 1, 10)

    def test_weighted_layer_count(self, network):
        assert len(network.weighted_layers) == 11

    def test_shapes_agree_with_descriptions(self, network):
        descriptions = svgg11_layer_shapes()
        weighted = network.weighted_layers
        for description, index in zip(descriptions, weighted):
            assert network.layer_input_shape(index) == description["input_shape"]
            assert network.layer_output_shape(index) == description["output_shape"]

    def test_uninitialized_build(self):
        network = build_svgg11(initialize=False)
        assert network.layers[0].weights is None
