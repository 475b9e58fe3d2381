"""Lossless conversions between dense spike tensors and the CSR-derived format.

Both conversions round-trip exactly (verified by property-based tests): a
dense map compressed and expanded again yields the identical boolean tensor.
"""

from __future__ import annotations

import numpy as np

from ..types import INDEX_BYTES_DEFAULT
from .csr_fiber import CompressedIfmap, CompressedVector, index_dtype
from .dense import as_dense_spikes, shape_of


def compress_ifmap(dense: np.ndarray, index_bytes: int = INDEX_BYTES_DEFAULT) -> CompressedIfmap:
    """Compress a dense HWC spike map into the CSR-derived fiber-tree format."""
    dense = as_dense_spikes(dense)
    shape = shape_of(dense)
    flat = dense.reshape(shape.spatial_size, shape.channels)
    counts = np.count_nonzero(flat, axis=1)
    s_ptr = np.zeros(shape.spatial_size + 1, dtype=np.int64)
    np.cumsum(counts, out=s_ptr[1:])
    positions, channels = np.nonzero(flat)
    # np.nonzero returns row-major order: grouped by spatial position with
    # ascending channel indices inside each group, which is exactly the
    # ordering the SpVA kernel expects.
    del positions
    c_idcs = channels.astype(index_dtype(index_bytes))
    return CompressedIfmap(shape=shape, c_idcs=c_idcs, s_ptr=s_ptr, index_bytes=index_bytes)


def decompress_ifmap(compressed: CompressedIfmap) -> np.ndarray:
    """Expand a compressed ifmap back into a dense boolean HWC tensor."""
    shape = compressed.shape
    dense = np.zeros((shape.spatial_size, shape.channels), dtype=bool)
    counts = np.diff(compressed.s_ptr)
    positions = np.repeat(np.arange(shape.spatial_size), counts)
    dense[positions, compressed.c_idcs.astype(np.int64)] = True
    return dense.reshape(shape.height, shape.width, shape.channels)


def compress_vector(dense: np.ndarray, index_bytes: int = INDEX_BYTES_DEFAULT) -> CompressedVector:
    """Compress a dense 1-D binary vector (FC-layer input) into index form."""
    dense = np.asarray(dense)
    if dense.ndim != 1:
        raise ValueError(f"FC spike vector must be 1-D, got shape {dense.shape}")
    if dense.dtype != np.bool_:
        unique = np.unique(dense)
        if not np.all(np.isin(unique, (0, 1))):
            raise ValueError("spike vector must contain only 0/1 values")
        dense = dense.astype(bool)
    idcs = np.nonzero(dense)[0].astype(index_dtype(index_bytes))
    return CompressedVector(length=len(dense), idcs=idcs, index_bytes=index_bytes)


def decompress_vector(compressed: CompressedVector) -> np.ndarray:
    """Expand a compressed spike vector back into dense boolean form."""
    dense = np.zeros(compressed.length, dtype=bool)
    dense[compressed.idcs.astype(np.int64)] = True
    return dense
