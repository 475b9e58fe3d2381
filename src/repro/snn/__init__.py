"""Spiking-neural-network substrate.

This package provides the functional SNN model that SpikeStream accelerates:
Leaky Integrate-and-Fire neuron dynamics, spiking convolutional / fully
connected / pooling layers, the S-VGG11 network used throughout the paper's
evaluation, a NumPy golden-reference implementation and synthetic
CIFAR-10-like data.
"""

from .neuron import LIFParameters, LIFState, lif_step, lif_step_batch
from .numerics import (
    CLASSIFICATION_AGREEMENT_BOUND,
    FORWARD_PATHS,
    PRECISIONS,
    SPIKE_COUNT_TOLERANCE,
    NumericsPolicy,
)
from .layers import (
    Flatten,
    SpikingAvgPool2d,
    SpikingConv2d,
    SpikingLinear,
    SpikingMaxPool2d,
)
from .network import (
    BatchLayerRecord,
    BatchNetworkActivity,
    LayerRecord,
    NetworkActivity,
    SpikingNetwork,
)
from .svgg11 import (
    SVGG11_CONV_CHANNELS,
    SVGG11_LAYER_FIRING_RATES,
    build_svgg11,
    svgg11_layer_shapes,
)
from .datasets import (
    SyntheticCIFAR10,
    synthetic_compressed_ifmap,
    synthetic_layer_activity,
)

__all__ = [
    "LIFParameters",
    "LIFState",
    "lif_step",
    "lif_step_batch",
    "CLASSIFICATION_AGREEMENT_BOUND",
    "FORWARD_PATHS",
    "PRECISIONS",
    "SPIKE_COUNT_TOLERANCE",
    "NumericsPolicy",
    "Flatten",
    "SpikingAvgPool2d",
    "SpikingConv2d",
    "SpikingLinear",
    "SpikingMaxPool2d",
    "BatchLayerRecord",
    "BatchNetworkActivity",
    "LayerRecord",
    "NetworkActivity",
    "SpikingNetwork",
    "SVGG11_CONV_CHANNELS",
    "SVGG11_LAYER_FIRING_RATES",
    "build_svgg11",
    "svgg11_layer_shapes",
    "SyntheticCIFAR10",
    "synthetic_compressed_ifmap",
    "synthetic_layer_activity",
]
