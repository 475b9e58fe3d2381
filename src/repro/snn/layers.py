"""Spiking network layers.

Layers are lightweight containers for weights, geometry and neuron parameters.
The functional forward pass lives in :mod:`repro.snn.reference` (golden model)
and :mod:`repro.kernels` (cluster kernels); layer objects expose the metadata
both need: shapes, weight tensors in the batched-HWC layout, and whether the
layer performs spike encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..types import LayerKind, TensorShape
from ..utils.rng import SeedLike, make_rng
from .neuron import LIFParameters
from .numerics import spike_grid_weights
from .reference import conv_output_size


@dataclass
class SpikingConv2d:
    """A spiking 2-D convolutional layer with LIF activation.

    Weights are stored as ``(kh, kw, C_in, C_out)``, which flattens to the
    batched HWC layout used by the cluster kernels (weights of consecutive
    output channels are contiguous so that SIMD lanes can be filled directly).
    """

    in_channels: int
    out_channels: int
    kernel_size: int = 3
    stride: int = 1
    padding: int = 1
    lif: LIFParameters = field(default_factory=LIFParameters)
    encodes_input: bool = False
    name: str = "conv"
    weights: Optional[np.ndarray] = None

    kind: LayerKind = field(default=LayerKind.CONV, init=False)

    def __post_init__(self) -> None:
        for attr in ("in_channels", "out_channels", "kernel_size", "stride"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive, got {getattr(self, attr)}")
        if self.padding < 0:
            raise ValueError(f"padding must be non-negative, got {self.padding}")
        expected = self.weight_shape
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != expected:
                raise ValueError(
                    f"weights have shape {self.weights.shape}, expected {expected}"
                )

    @property
    def weight_shape(self) -> Tuple[int, int, int, int]:
        """Shape of the filter bank ``(kh, kw, C_in, C_out)``."""
        return (self.kernel_size, self.kernel_size, self.in_channels, self.out_channels)

    @property
    def num_weights(self) -> int:
        """Number of weight elements."""
        return int(np.prod(self.weight_shape))

    def initialize(self, rng: SeedLike = None, scale: Optional[float] = None) -> None:
        """Randomly initialize the weights (He-style scaling by fan-in).

        A spike-input layer's draw is rounded to the exact-spike grid
        (:func:`~repro.snn.numerics.spike_grid_weights`); the encoding
        layer reads real-valued frames and keeps its float64 draw.
        """
        rng = make_rng(rng)
        fan_in = self.kernel_size * self.kernel_size * self.in_channels
        scale = scale if scale is not None else np.sqrt(2.0 / fan_in)
        draw = rng.normal(0.0, scale, size=self.weight_shape)
        self.weights = draw if self.encodes_input else spike_grid_weights(draw)

    def output_shape(self, input_shape: TensorShape) -> TensorShape:
        """Shape of the output spike map for a given input shape."""
        if input_shape.channels != self.in_channels:
            raise ValueError(
                f"layer {self.name!r} expects {self.in_channels} input channels, "
                f"got {input_shape.channels}"
            )
        out_h = conv_output_size(input_shape.height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(input_shape.width, self.kernel_size, self.stride, self.padding)
        return TensorShape(out_h, out_w, self.out_channels)

    def padded_input_shape(self, input_shape: TensorShape) -> TensorShape:
        """Shape of the zero-padded ifmap actually held in memory."""
        return TensorShape(
            input_shape.height + 2 * self.padding,
            input_shape.width + 2 * self.padding,
            input_shape.channels,
        )

    def require_weights(self) -> np.ndarray:
        """Return the weight tensor, raising if the layer is uninitialized."""
        if self.weights is None:
            raise RuntimeError(f"layer {self.name!r} has no weights; call initialize() first")
        return self.weights


@dataclass
class SpikingLinear:
    """A spiking fully connected layer with LIF activation.

    Weights are stored as ``(in_features, out_features)`` so that the weights
    of consecutive output neurons are contiguous (SIMD batched layout).
    """

    in_features: int
    out_features: int
    lif: LIFParameters = field(default_factory=LIFParameters)
    is_output: bool = False
    name: str = "fc"
    weights: Optional[np.ndarray] = None

    kind: LayerKind = field(default=LayerKind.LINEAR, init=False)

    def __post_init__(self) -> None:
        for attr in ("in_features", "out_features"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive, got {getattr(self, attr)}")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != (self.in_features, self.out_features):
                raise ValueError(
                    f"weights have shape {self.weights.shape}, expected "
                    f"{(self.in_features, self.out_features)}"
                )

    @property
    def num_weights(self) -> int:
        """Number of weight elements."""
        return self.in_features * self.out_features

    def initialize(self, rng: SeedLike = None, scale: Optional[float] = None) -> None:
        """Randomly initialize the weights (He-style scaling by fan-in),
        rounded to the exact-spike grid
        (:func:`~repro.snn.numerics.spike_grid_weights`)."""
        rng = make_rng(rng)
        scale = scale if scale is not None else np.sqrt(2.0 / self.in_features)
        self.weights = spike_grid_weights(
            rng.normal(0.0, scale, size=(self.in_features, self.out_features))
        )

    def output_shape(self, input_shape: TensorShape) -> TensorShape:
        """Shape of the output (a 1x1 spatial map with ``out_features`` channels)."""
        if input_shape.numel != self.in_features:
            raise ValueError(
                f"layer {self.name!r} expects {self.in_features} input features, "
                f"got {input_shape.numel}"
            )
        return TensorShape(1, 1, self.out_features)

    def require_weights(self) -> np.ndarray:
        """Return the weight tensor, raising if the layer is uninitialized."""
        if self.weights is None:
            raise RuntimeError(f"layer {self.name!r} has no weights; call initialize() first")
        return self.weights


@dataclass
class SpikingMaxPool2d:
    """Spatial max pooling of spike maps (logical OR over the window)."""

    kernel_size: int = 2
    stride: int = 2
    name: str = "maxpool"

    kind: LayerKind = field(default=LayerKind.MAXPOOL, init=False)

    def __post_init__(self) -> None:
        if self.kernel_size <= 0 or self.stride <= 0:
            raise ValueError("kernel_size and stride must be positive")

    def output_shape(self, input_shape: TensorShape) -> TensorShape:
        """Shape of the pooled output."""
        out_h = (input_shape.height - self.kernel_size) // self.stride + 1
        out_w = (input_shape.width - self.kernel_size) // self.stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(f"pooling {self.name!r} produces empty output for {input_shape}")
        return TensorShape(out_h, out_w, input_shape.channels)


@dataclass
class SpikingAvgPool2d:
    """Spatial average pooling (used only by non-spiking readouts)."""

    kernel_size: int = 2
    stride: int = 2
    name: str = "avgpool"

    kind: LayerKind = field(default=LayerKind.AVGPOOL, init=False)

    def __post_init__(self) -> None:
        if self.kernel_size <= 0 or self.stride <= 0:
            raise ValueError("kernel_size and stride must be positive")

    def output_shape(self, input_shape: TensorShape) -> TensorShape:
        """Shape of the pooled output."""
        out_h = (input_shape.height - self.kernel_size) // self.stride + 1
        out_w = (input_shape.width - self.kernel_size) // self.stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(f"pooling {self.name!r} produces empty output for {input_shape}")
        return TensorShape(out_h, out_w, input_shape.channels)


@dataclass
class Flatten:
    """Flatten an HWC spike map into a 1-D vector feeding the FC layers."""

    name: str = "flatten"
    kind: LayerKind = field(default=LayerKind.FLATTEN, init=False)

    def output_shape(self, input_shape: TensorShape) -> TensorShape:
        """Shape of the flattened output."""
        return TensorShape(1, 1, input_shape.numel)
