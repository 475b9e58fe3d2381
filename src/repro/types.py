"""Common enumerations and small value types shared across the library.

The SpikeStream paper evaluates three numeric precisions (FP8, FP16 and the
FP64-capable baseline datapath).  :class:`Precision` captures the properties
that matter for the performance and energy models: the width of a single
element, the resulting SIMD width on Snitch's 64-bit FPU lanes, and a relative
FPU energy scale used by :mod:`repro.energy`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Precision(enum.Enum):
    """Floating-point element precision used by a kernel.

    Snitch's FPU operates on 64-bit registers and packs narrower elements into
    SIMD lanes: one FP64 element, two FP32, four FP16 or eight FP8 elements
    per register.
    """

    FP64 = "fp64"
    FP32 = "fp32"
    FP16 = "fp16"
    FP8 = "fp8"

    @property
    def bits(self) -> int:
        """Number of bits of a single element."""
        return _PRECISION_BITS[self.value]

    @property
    def bytes(self) -> int:
        """Number of bytes of a single element."""
        return self.bits // 8

    @property
    def simd_width(self) -> int:
        """Number of elements packed into one 64-bit FPU register."""
        return 64 // self.bits

    @property
    def fpu_energy_scale(self) -> float:
        """Relative per-operation FPU energy w.r.t. FP64.

        Narrow formats use dedicated execution slices that are clock-gated
        when idle (Section IV-B of the paper), so per-register-operation
        energy shrinks slightly with precision even though more elements are
        processed per operation.
        """
        return _FPU_ENERGY_SCALE[self.value]

    @classmethod
    def from_name(cls, name: str) -> "Precision":
        """Parse a precision from strings like ``"fp16"`` or ``"FP16"``."""
        try:
            return cls(name.lower())
        except ValueError as exc:
            valid = ", ".join(p.value for p in cls)
            raise ValueError(f"unknown precision {name!r}; expected one of {valid}") from exc


#: Per-precision tables, keyed by value: the cost model reads them for
#: every layer, so they are built once rather than per lookup.
_PRECISION_BITS = {"fp64": 64, "fp32": 32, "fp16": 16, "fp8": 8}
_FPU_ENERGY_SCALE = {"fp64": 1.0, "fp32": 0.72, "fp16": 0.55, "fp8": 0.44}


class LayerKind(enum.Enum):
    """Kind of a network layer, used to pick the execution strategy."""

    CONV = "conv"
    LINEAR = "linear"
    MAXPOOL = "maxpool"
    AVGPOOL = "avgpool"
    FLATTEN = "flatten"


class StreamKind(enum.Enum):
    """Addressing mode of a Snitch stream register."""

    AFFINE = "affine"
    INDIRECT = "indirect"


class OptimizationFlag(enum.Flag):
    """Individual SpikeStream optimizations (Section III of the paper)."""

    NONE = 0
    TENSOR_COMPRESSION = enum.auto()
    TASK_PARALLELIZATION = enum.auto()
    DATA_PARALLELIZATION = enum.auto()
    DOUBLE_BUFFERING = enum.auto()
    STREAMING_ACCELERATION = enum.auto()

    @classmethod
    def baseline(cls) -> "OptimizationFlag":
        """Flags used by the paper's parallel SIMD baseline (TC+TP+DP+DB)."""
        return (
            cls.TENSOR_COMPRESSION
            | cls.TASK_PARALLELIZATION
            | cls.DATA_PARALLELIZATION
            | cls.DOUBLE_BUFFERING
        )

    @classmethod
    def spikestream(cls) -> "OptimizationFlag":
        """Flags used by the full SpikeStream kernel (baseline + SA)."""
        return cls.baseline() | cls.STREAMING_ACCELERATION


@dataclass(frozen=True)
class TensorShape:
    """Shape of a (possibly spatial) activation tensor in HWC order."""

    height: int
    width: int
    channels: int

    def __post_init__(self) -> None:
        for name in ("height", "width", "channels"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def spatial_size(self) -> int:
        """Number of spatial positions (H*W)."""
        return self.height * self.width

    @property
    def numel(self) -> int:
        """Total number of elements."""
        return self.height * self.width * self.channels

    def as_tuple(self) -> tuple:
        """Return ``(height, width, channels)``."""
        return (self.height, self.width, self.channels)

    def __str__(self) -> str:
        return f"{self.height}x{self.width}x{self.channels}"


INDEX_BYTES_DEFAULT = 2
"""Default index width in bytes (the paper assumes 16-bit indices)."""
