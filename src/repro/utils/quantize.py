"""Emulation of reduced-precision floating-point formats.

Snitch's FPU natively computes in FP64/FP32/FP16/FP8.  NumPy has no FP8 dtype,
so FP8 (E4M3-like) values are emulated by rounding the mantissa to three bits
and clamping the exponent range.  The emulation is only used for functional
outputs; the performance and energy models use :class:`repro.types.Precision`
metadata directly.
"""

from __future__ import annotations

import numpy as np

from ..types import Precision

_FP8_MANTISSA_BITS = 3
_FP8_MAX_EXPONENT = 8
_FP8_MIN_EXPONENT = -6
_FP8_MAX = float((2 - 2.0 ** -_FP8_MANTISSA_BITS) * 2.0 ** _FP8_MAX_EXPONENT)


def _quantize_fp8(values: np.ndarray) -> np.ndarray:
    """Round ``values`` to an E4M3-like FP8 grid, keeping a float32 container."""
    out = np.asarray(values, dtype=np.float64).copy()
    nonzero = out != 0.0
    if np.any(nonzero):
        magnitude = np.abs(out[nonzero])
        exponent = np.floor(np.log2(magnitude))
        exponent = np.clip(exponent, _FP8_MIN_EXPONENT, _FP8_MAX_EXPONENT)
        scale = 2.0 ** (exponent - _FP8_MANTISSA_BITS)
        out[nonzero] = np.round(out[nonzero] / scale) * scale
    out = np.clip(out, -_FP8_MAX, _FP8_MAX)
    return out.astype(np.float32)


def quantize(values: np.ndarray, precision: Precision) -> np.ndarray:
    """Quantize ``values`` to ``precision`` and return them as float32/float64.

    The result always uses a dtype wide enough for further NumPy arithmetic
    (float32 for FP8/FP16/FP32, float64 for FP64), but its values lie exactly
    on the representable grid of the requested format.
    """
    values = np.asarray(values)
    if precision is Precision.FP64:
        return values.astype(np.float64)
    if precision is Precision.FP32:
        return values.astype(np.float32)
    if precision is Precision.FP16:
        return values.astype(np.float16).astype(np.float32)
    return _quantize_fp8(values)
