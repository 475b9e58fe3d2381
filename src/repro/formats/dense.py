"""Dense HWC spike tensors.

A dense spike map is a boolean ``(H, W, C)`` array in HWC (height, width,
channel) order — the layout SpikeStream adopts for the weight tensor and the
first-layer input currents.  Helper functions validate and normalize user
arrays into this canonical form.
"""

from __future__ import annotations

import numpy as np

from ..types import TensorShape


def as_dense_spikes(array: np.ndarray) -> np.ndarray:
    """Normalize ``array`` into a canonical boolean HWC spike map.

    Accepts any array of zeros/ones (bool, int or float) with three
    dimensions interpreted as (H, W, C).
    """
    array = np.asarray(array)
    if array.ndim != 3:
        raise ValueError(f"dense spike map must be 3-D (H, W, C), got shape {array.shape}")
    if array.dtype != np.bool_:
        unique = np.unique(array)
        if not np.all(np.isin(unique, (0, 1))):
            raise ValueError("dense spike map must contain only 0/1 values")
        array = array.astype(bool)
    return array


def shape_of(dense: np.ndarray) -> TensorShape:
    """Return the :class:`TensorShape` of a dense HWC spike map."""
    dense = as_dense_spikes(dense)
    height, width, channels = dense.shape
    return TensorShape(height=height, width=width, channels=channels)

