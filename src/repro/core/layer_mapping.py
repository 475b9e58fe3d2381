"""Per-layer execution plans produced by the SpikeStream optimizer."""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import List, Union

from ..kernels.conv import ConvLayerSpec
from ..kernels.encode import EncodeLayerSpec
from ..kernels.fc import FcLayerSpec
from ..types import Precision, StreamKind

LayerSpec = Union[EncodeLayerSpec, ConvLayerSpec, FcLayerSpec]


class KernelKind(enum.Enum):
    """Which cluster kernel executes a layer."""

    ENCODE = "encode"
    CONV = "conv"
    FC = "fc"


@dataclass
class LayerPlan:
    """How one weighted layer is executed on the cluster.

    Attributes
    ----------
    name:
        Layer name (e.g. ``conv3``).
    kernel:
        Which kernel implements the layer.
    spec:
        The kernel's static layer specification.
    precision:
        Numeric precision of weights and accumulation.
    streaming:
        Whether the SA optimization (SSRs + frep) is applied.
    stream_kinds:
        The stream-register usage of the layer: two affine streams for the
        dense encoding layer, one indirect stream for compressed layers.
    firing_rate:
        Expected firing rate of the layer's ifmap (used by statistical runs).
    notes:
        Human-readable remarks from the optimizer (e.g. why streaming was
        not applied).
    """

    name: str
    kernel: KernelKind
    spec: LayerSpec
    precision: Precision
    streaming: bool
    stream_kinds: List[StreamKind] = field(default_factory=list)
    firing_rate: float = 1.0
    notes: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.firing_rate <= 1.0:
            raise ValueError(f"firing_rate must be in [0, 1], got {self.firing_rate}")
        expected_spec = {
            KernelKind.ENCODE: EncodeLayerSpec,
            KernelKind.CONV: ConvLayerSpec,
            KernelKind.FC: FcLayerSpec,
        }[self.kernel]
        if not isinstance(self.spec, expected_spec):
            raise TypeError(
                f"layer {self.name!r}: kernel {self.kernel.value} requires a "
                f"{expected_spec.__name__}, got {type(self.spec).__name__}"
            )

    def copy(self) -> "LayerPlan":
        """An independent copy: changing it, its spec or its stream list
        never changes this plan (the specs' other fields are immutable)."""
        duplicate = copy.copy(self)
        duplicate.spec = copy.copy(self.spec)
        duplicate.stream_kinds = list(self.stream_kinds)
        return duplicate

    @property
    def uses_indirect_stream(self) -> bool:
        """Whether the plan relies on an indirect (gather) stream."""
        return StreamKind.INDIRECT in self.stream_kinds

    @property
    def simd_width(self) -> int:
        """SIMD lanes used by the data-parallelization of this layer."""
        return self.precision.simd_width
