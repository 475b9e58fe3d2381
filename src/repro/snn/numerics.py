"""Numerics of the golden functional model.

**What is exact.**  A spike-input layer (every weighted layer but the
encoding conv) multiplies a 0/1 map into its weights, so each output
current is a sum of a subset of one output channel's weights.  When every
weight is a multiple of ``2**-WEIGHT_GRID_BITS`` and every output
channel's sum of ``|w|`` is below :data:`CHANNEL_SUM_BOUND`, every partial
sum is a multiple of ``2**-16`` below ``2**8`` in magnitude: 24
significant bits, which float32 holds exactly.  Such a layer's float32
GEMM is then exact in any summation order and equal, byte for byte once
cast to float64, to the fp64 per-frame oracle.
:meth:`SpikingConv2d.initialize <repro.snn.layers.SpikingConv2d.initialize>`
and :meth:`SpikingLinear.initialize <repro.snn.layers.SpikingLinear.initialize>`
round a spike-input layer's draw to that grid and store it as float32
(:func:`spike_grid_weights`); the forward pass runs a layer's GEMMs in
float32 only where :func:`exact_in_float32` says so, and LIF stays in the
membrane's dtype.  The encoding conv reads real-valued frames, and layers
built with explicit weights keep them as float64, so both keep the fp64
GEMMs of the reference route.

**The policy.**  :class:`NumericsPolicy` trades exactness for speed where
the weights are not exact:

* ``precision`` — ``"fp64"`` (the bit-for-bit reference) or ``"fp32"``
  (half the bytes through every GEMM, im2row buffer and membrane array);
* ``forward_path`` — ``"dense"`` (im2row GEMM over the full spike map) or
  ``"event_sparse"`` (gather only the *active* input rows before the GEMM,
  the software analogue of the paper's sparse vector-product streaming, so
  arithmetic cost scales with nnz instead of dense size).

The default policy (:data:`REFERENCE`, ``fp64-dense``) is what every
existing caller gets when it passes ``policy=None`` anywhere: all
bit-for-bit equality gates of the batched engines hold under it.
Non-reference policies trade exactness for speed inside the accuracy bound
documented in :data:`CLASSIFICATION_AGREEMENT_BOUND` /
:data:`SPIKE_COUNT_TOLERANCE` (gated by ``tests/core/test_precision_paths.py``
and measured by ``benchmarks/bench_precision.py``).

The policy is part of a run's identity: :meth:`Session.functional_fingerprint
<repro.session.Session.functional_fingerprint>` hashes :meth:`NumericsPolicy.key`
into every functional store key, so fp32 results can never be served where
fp64 results were requested (or vice versa).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "CHANNEL_SUM_BOUND",
    "CLASSIFICATION_AGREEMENT_BOUND",
    "FORWARD_PATHS",
    "NumericsPolicy",
    "PRECISIONS",
    "REFERENCE",
    "SPIKE_COUNT_TOLERANCE",
    "WEIGHT_GRID_BITS",
    "exact_in_float32",
    "resolve",
    "spike_grid_weights",
]

PRECISIONS: Tuple[str, ...] = ("fp64", "fp32")
"""Accepted ``precision`` values (golden-model dtype, not the hardware
cost-model :class:`~repro.types.Precision`)."""

FORWARD_PATHS: Tuple[str, ...] = ("dense", "event_sparse")
"""Accepted ``forward_path`` values."""

_DTYPES: Dict[str, np.dtype] = {
    "fp64": np.dtype(np.float64),
    "fp32": np.dtype(np.float32),
}

#: Documented accuracy bound of the non-reference policies versus the FP64
#: dense reference: fraction of frames whose predicted class matches the
#: reference prediction on the paper's S-VGG11 shapes.
CLASSIFICATION_AGREEMENT_BOUND: float = 0.99

#: Documented accuracy bound on per-layer spike counts: the maximum absolute
#: deviation of any layer's total spike count under a non-reference policy,
#: as a fraction of that layer's FP64 dense reference spike count (floor 1).
#: FP32 only reorders/rounds the membrane current in the last ulps, so
#: spikes flip only at near-threshold coincidences; the bound is
#: deliberately loose versus the near-zero deviations measured in practice.
SPIKE_COUNT_TOLERANCE: float = 0.02


@dataclass(frozen=True)
class NumericsPolicy:
    """Selectable precision and forward path of the golden functional model."""

    precision: str = "fp64"
    forward_path: str = "dense"

    def __post_init__(self) -> None:
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {self.precision!r}"
            )
        if self.forward_path not in FORWARD_PATHS:
            raise ValueError(
                f"forward_path must be one of {FORWARD_PATHS}, got {self.forward_path!r}"
            )

    @property
    def dtype(self) -> np.dtype:
        """The NumPy dtype of membrane currents, potentials and weights."""
        return np.dtype(_DTYPES[self.precision])

    @property
    def is_reference(self) -> bool:
        """Whether this is the bit-for-bit FP64 dense reference policy."""
        return self.precision == "fp64" and self.forward_path == "dense"

    def key(self) -> str:
        """Canonical string identity, e.g. ``"fp32-event_sparse"``.

        This exact string enters functional result-store fingerprints and
        serve compatibility group keys, and names the per-policy serve
        telemetry counters.
        """
        return f"{self.precision}-{self.forward_path}"

    @classmethod
    def from_key(cls, key: str) -> "NumericsPolicy":
        """Parse a :meth:`key`-formatted string (CLI flags use the parts)."""
        precision, _, forward_path = key.partition("-")
        return cls(precision=precision, forward_path=forward_path)

    def to_dict(self) -> Dict[str, str]:
        """JSON-friendly form (benchmark snapshots, telemetry)."""
        return {"precision": self.precision, "forward_path": self.forward_path}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "NumericsPolicy":
        return cls(
            precision=data["precision"], forward_path=data["forward_path"]
        )


REFERENCE = NumericsPolicy()
"""The bit-for-bit FP64 dense reference policy (the default everywhere)."""


def resolve(policy: Optional[NumericsPolicy]) -> NumericsPolicy:
    """``None`` -> :data:`REFERENCE`; anything else passes through.

    The single place that defines what "no policy" means, used by every
    layer that threads a policy (network, engine, session, serve).
    """
    return REFERENCE if policy is None else policy


#: Spike-input weights are rounded to multiples of ``2**-WEIGHT_GRID_BITS``.
#: S-VGG11's He-scaled draw moves by at most 3.7e-4 of its layer's standard
#: deviation.
WEIGHT_GRID_BITS = 16

#: Every output channel's sum of ``|w|`` must stay below this for a float32
#: spike GEMM to be exact: ``2**8`` on the ``2**-16`` grid is 24 bits.
#: S-VGG11's largest channel sums run from 29 (conv2) to 79 (conv6-conv8).
CHANNEL_SUM_BOUND = 2.0 ** (24 - WEIGHT_GRID_BITS)

#: Elements per block of the weight scans below, so that no scan holds a
#: temporary as large as fc2's 67 MB of float32 weights.
_SCAN_BLOCK_ELEMS = 1 << 20


def _row_blocks(weights: np.ndarray):
    """``weights`` as ``(fan_in, C_out)`` row blocks of at most
    :data:`_SCAN_BLOCK_ELEMS` elements."""
    flat = weights.reshape(-1, weights.shape[-1])
    step = max(1, _SCAN_BLOCK_ELEMS // flat.shape[1])
    return (flat[start:start + step] for start in range(0, flat.shape[0], step))


def _channel_sums_below_bound(weights: np.ndarray) -> bool:
    """Whether every output channel's sum of ``|w|`` is below
    :data:`CHANNEL_SUM_BOUND`.

    Summed in the weights' own dtype.  For grid weights that is exact while
    a sum stays below the bound, and rounding is monotone with the bound
    representable, so no sum at or over it can round back below: the
    verdict holds for any summation order, float32 included.
    """
    sums = np.zeros(weights.shape[-1], dtype=weights.dtype)
    for block in _row_blocks(weights):
        sums += np.abs(block).sum(axis=0)
    return bool(np.all(sums < CHANNEL_SUM_BOUND))


def spike_grid_weights(draw: np.ndarray) -> np.ndarray:
    """A spike-input layer's weights from a fresh float64 ``draw``.

    Rounds ``draw`` in place to the ``2**-WEIGHT_GRID_BITS`` grid, then
    returns it as float32 when every output channel's sum of ``|w|`` is
    below :data:`CHANNEL_SUM_BOUND` (float32 holds those values exactly, so
    the float32 array is the layer's only copy), and the rounded float64
    draw otherwise.
    """
    draw *= 2.0 ** WEIGHT_GRID_BITS
    np.rint(draw, out=draw)
    draw *= 2.0 ** -WEIGHT_GRID_BITS
    weights = draw.astype(np.float32)
    # Summed in float32, at half the bytes: a weight float32 cannot hold
    # exactly is at least 2**8 in magnitude and fails the bound either way.
    return weights if _channel_sums_below_bound(weights) else draw


def exact_in_float32(weights: np.ndarray) -> bool:
    """Whether float32 GEMMs of 0/1 inputs against ``weights`` are exact.

    True when ``weights`` is float32, every value is a multiple of
    ``2**-WEIGHT_GRID_BITS`` and every output channel's (last axis) sum of
    ``|w|`` is below :data:`CHANNEL_SUM_BOUND`.  Checked from the values,
    never assumed from the dtype; NaN and infinite weights fail.
    """
    if weights.dtype != np.float32:
        return False
    for block in _row_blocks(weights):
        scaled = block * 2.0 ** WEIGHT_GRID_BITS
        if not np.array_equal(np.rint(scaled), scaled):
            return False
    return _channel_sums_below_bound(weights)
