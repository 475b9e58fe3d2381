"""The S-VGG11 network used throughout the paper's evaluation.

The model is a spiking VGG-11 for CIFAR-10 (32x32x3 inputs), trained with
temporal backpropagation in the original work and executed for a single
timestep in the main evaluation.  The first convolutional layer performs
spike encoding: raw pixel values are interpreted directly as input currents.

The per-layer ifmap shapes reported in Figure 3a (34x34x3, 34x34x64,
18x18x128, 18x18x256, 10x10x256, 10x10x512, ...) are the zero-padded inputs
of the convolutional layers; this module reproduces exactly those shapes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..types import TensorShape
from .layers import Flatten, SpikingConv2d, SpikingLinear, SpikingMaxPool2d
from .neuron import LIFParameters
from .network import SpikingNetwork

SVGG11_INPUT_SHAPE = TensorShape(32, 32, 3)
"""CIFAR-10 input frame shape (HWC)."""

SVGG11_CONV_CHANNELS = (64, 128, 256, 256, 512, 512, 512, 512)
"""Output channels of the eight convolutional layers of VGG-11."""

_POOL_AFTER_CONV = (2, 4, 6, 8)
"""1-based conv-layer indices followed by a 2x2 max-pool (VGG-11 topology)."""

SVGG11_FC_FEATURES = (4096, 4096, 10)
"""Output features of the three fully connected layers."""

SVGG11_LAYER_FIRING_RATES: Dict[str, float] = {
    "conv1": 1.0,   # dense RGB input (spike encoding layer)
    "conv2": 0.45,
    "conv3": 0.31,
    "conv4": 0.24,
    "conv5": 0.15,
    "conv6": 0.10,
    "conv7": 0.09,
    "conv8": 0.08,
    "fc1": 0.06,
    "fc2": 0.04,
    "fc3": 0.03,
}
"""Default per-layer *input* firing rates, following the firing-activity
profile of Figure 3a (decreasing with depth; FC layers extremely sparse)."""


def build_svgg11(
    lif: Optional[LIFParameters] = None,
    rng=None,
    initialize: bool = True,
) -> SpikingNetwork:
    """Construct the S-VGG11 spiking network.

    Parameters
    ----------
    lif:
        Neuron parameters shared by all layers (paper defaults if omitted).
    rng:
        Seed or generator for weight initialization.
    initialize:
        If True (default), weights are randomly initialized; pass False to
        load custom weights afterwards.
    """
    lif = lif or LIFParameters()
    layers: List = []
    in_channels = SVGG11_INPUT_SHAPE.channels
    for position, out_channels in enumerate(SVGG11_CONV_CHANNELS, start=1):
        layers.append(
            SpikingConv2d(
                in_channels=in_channels,
                out_channels=out_channels,
                kernel_size=3,
                stride=1,
                padding=1,
                lif=lif,
                encodes_input=(position == 1),
                name=f"conv{position}",
            )
        )
        if position in _POOL_AFTER_CONV:
            layers.append(SpikingMaxPool2d(kernel_size=2, stride=2, name=f"pool{position}"))
        in_channels = out_channels

    layers.append(Flatten(name="flatten"))
    # After four 2x2 pools, the 32x32 input becomes 2x2x512 = 2048 features.
    in_features = (SVGG11_INPUT_SHAPE.height // 16) * (SVGG11_INPUT_SHAPE.width // 16) * in_channels
    for position, out_features in enumerate(SVGG11_FC_FEATURES, start=1):
        layers.append(
            SpikingLinear(
                in_features=in_features,
                out_features=out_features,
                lif=lif,
                is_output=(position == len(SVGG11_FC_FEATURES)),
                name=f"fc{position}",
            )
        )
        in_features = out_features

    network = SpikingNetwork(layers, input_shape=SVGG11_INPUT_SHAPE, name="s-vgg11")
    if initialize:
        network.initialize(rng)
    return network


def svgg11_layer_shapes() -> List[Dict[str, object]]:
    """Describe every weighted layer of S-VGG11 without building weights.

    Returns a list of dictionaries with the layer name, kind, unpadded and
    padded input shapes, output shape, kernel geometry and default firing
    rate of the layer's ifmap.  This is the workload description used by the
    statistical (shape-only) experiments, which never materialize weights.
    """
    descriptions: List[Dict[str, object]] = []
    shape = SVGG11_INPUT_SHAPE
    in_channels = shape.channels
    for position, out_channels in enumerate(SVGG11_CONV_CHANNELS, start=1):
        name = f"conv{position}"
        padded = TensorShape(shape.height + 2, shape.width + 2, in_channels)
        out_shape = TensorShape(shape.height, shape.width, out_channels)
        descriptions.append(
            {
                "name": name,
                "kind": "conv",
                "input_shape": shape,
                "padded_input_shape": padded,
                "output_shape": out_shape,
                "kernel_size": 3,
                "stride": 1,
                "padding": 1,
                "in_channels": in_channels,
                "out_channels": out_channels,
                "encodes_input": position == 1,
                "firing_rate": SVGG11_LAYER_FIRING_RATES[name],
            }
        )
        shape = out_shape
        if position in _POOL_AFTER_CONV:
            shape = TensorShape(shape.height // 2, shape.width // 2, shape.channels)
        in_channels = out_channels

    in_features = shape.numel
    for position, out_features in enumerate(SVGG11_FC_FEATURES, start=1):
        name = f"fc{position}"
        descriptions.append(
            {
                "name": name,
                "kind": "linear",
                "input_shape": TensorShape(1, 1, in_features),
                "padded_input_shape": TensorShape(1, 1, in_features),
                "output_shape": TensorShape(1, 1, out_features),
                "kernel_size": 1,
                "stride": 1,
                "padding": 0,
                "in_channels": in_features,
                "out_channels": out_features,
                "encodes_input": False,
                "firing_rate": SVGG11_LAYER_FIRING_RATES[name],
            }
        )
        in_features = out_features
    return descriptions


def layer_names(include_fc: bool = True) -> Sequence[str]:
    """Names of the weighted layers in network order."""
    names = [d["name"] for d in svgg11_layer_shapes()]
    if not include_fc:
        names = [n for n in names if n.startswith("conv")]
    return names
