"""CSR-derived fiber-tree compression of binary ifmaps (Section III-A).

Because all non-zero elements of a spike map are ``1``, only their positions
need to be stored.  In convolutional layers SpikeStream keeps, per spatial
position (row-major over H then W):

* ``c_idcs`` — the channel indices of active neurons, concatenated over all
  spatial positions, and
* ``s_ptr``  — a pointer array of length ``H*W + 1`` whose consecutive
  differences give the number of spiking neurons at each spatial position
  (a prefix-sum, exactly like CSR row pointers).

Fully connected layers use a single index array plus a spike count
(:class:`CompressedVector`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..types import INDEX_BYTES_DEFAULT, TensorShape

_INDEX_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32}


def index_dtype(index_bytes: int) -> np.dtype:
    """Return the NumPy dtype used for compressed indices of a given width."""
    try:
        return np.dtype(_INDEX_DTYPES[index_bytes])
    except KeyError as exc:
        raise ValueError(f"index_bytes must be one of {sorted(_INDEX_DTYPES)}, got {index_bytes}") from exc


@dataclass
class CompressedIfmap:
    """Fiber-tree compressed spike map for convolutional layers.

    Attributes
    ----------
    shape:
        Logical dense shape of the ifmap (H, W, C).
    c_idcs:
        Channel indices of active neurons, ordered by spatial position
        (row-major) and ascending channel within a position.
    s_ptr:
        Spatial pointer array of length ``H*W + 1``; ``s_ptr[p+1] - s_ptr[p]``
        is the number of spikes at flattened spatial position ``p``.
    index_bytes:
        Byte width of one stored index (16-bit in the paper).
    """

    shape: TensorShape
    c_idcs: np.ndarray
    s_ptr: np.ndarray
    index_bytes: int = INDEX_BYTES_DEFAULT

    def __post_init__(self) -> None:
        dtype = index_dtype(self.index_bytes)
        self.c_idcs = np.ascontiguousarray(np.asarray(self.c_idcs, dtype=dtype))
        self.s_ptr = np.ascontiguousarray(np.asarray(self.s_ptr, dtype=np.int64))
        expected_ptr_len = self.shape.spatial_size + 1
        if self.s_ptr.shape != (expected_ptr_len,):
            raise ValueError(
                f"s_ptr must have length {expected_ptr_len}, got {self.s_ptr.shape}"
            )
        if self.s_ptr[0] != 0:
            raise ValueError("s_ptr must start at 0")
        if np.any(np.diff(self.s_ptr) < 0):
            raise ValueError("s_ptr must be non-decreasing")
        if self.s_ptr[-1] != len(self.c_idcs):
            raise ValueError(
                f"s_ptr[-1] ({self.s_ptr[-1]}) must equal len(c_idcs) ({len(self.c_idcs)})"
            )
        if len(self.c_idcs) and int(self.c_idcs.max()) >= self.shape.channels:
            raise ValueError("c_idcs contains a channel index out of range")

    @property
    def nnz(self) -> int:
        """Total number of spikes stored."""
        return int(self.s_ptr[-1])

    @property
    def firing_rate(self) -> float:
        """Fraction of active neurons."""
        numel = self.shape.numel
        return self.nnz / numel if numel else 0.0

    def spatial_slice(self, row: int, col: int) -> np.ndarray:
        """Return the channel indices of spikes at spatial position (row, col)."""
        if not (0 <= row < self.shape.height and 0 <= col < self.shape.width):
            raise IndexError(f"spatial position ({row}, {col}) out of bounds for {self.shape}")
        pos = row * self.shape.width + col
        start, stop = int(self.s_ptr[pos]), int(self.s_ptr[pos + 1])
        return self.c_idcs[start:stop]

    def spike_counts(self) -> np.ndarray:
        """Per-spatial-position spike counts as an (H, W) array."""
        counts = np.diff(self.s_ptr)
        return counts.reshape(self.shape.height, self.shape.width)

    def footprint_bytes(self) -> int:
        """Bytes needed to store the compressed representation."""
        return len(self.c_idcs) * self.index_bytes + len(self.s_ptr) * self.index_bytes


@dataclass
class CompressedVector:
    """Compressed spike vector for fully connected layers.

    A single index array records the positions of spiking input neurons; the
    spike count is implicit in the array length but stored explicitly so that
    the kernel can set up the stream bound with a single load.
    """

    length: int
    idcs: np.ndarray
    index_bytes: int = INDEX_BYTES_DEFAULT

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"length must be non-negative, got {self.length}")
        dtype = index_dtype(self.index_bytes)
        self.idcs = np.ascontiguousarray(np.asarray(self.idcs, dtype=dtype))
        if len(self.idcs) and int(self.idcs.max()) >= self.length:
            raise ValueError("idcs contains an index out of range")
        if len(np.unique(self.idcs)) != len(self.idcs):
            raise ValueError("idcs must not contain duplicates")

    @property
    def nnz(self) -> int:
        """Number of spiking input neurons."""
        return int(len(self.idcs))

    @property
    def firing_rate(self) -> float:
        """Fraction of active input neurons."""
        return self.nnz / self.length if self.length else 0.0

    def footprint_bytes(self) -> int:
        """Bytes needed to store indices plus the explicit spike count."""
        return self.nnz * self.index_bytes + self.index_bytes


@dataclass
class CompressedIfmapBuilder:
    """Incremental builder used by kernels when emitting compressed ofmaps.

    Worker cores append spikes position-by-position; :meth:`finalize` yields a
    validated :class:`CompressedIfmap`.  The builder mirrors the SPM buffers
    allocated for the worst case (zero sparsity) described in Section III-D.
    """

    shape: TensorShape
    index_bytes: int = INDEX_BYTES_DEFAULT
    _counts: np.ndarray = field(init=False)
    _indices: list = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self._counts = np.zeros(self.shape.spatial_size, dtype=np.int64)
        self._indices = [[] for _ in range(self.shape.spatial_size)]

    def add_spike(self, row: int, col: int, channel: int) -> None:
        """Record a spike of output channel ``channel`` at position (row, col)."""
        if not (0 <= channel < self.shape.channels):
            raise ValueError(f"channel {channel} out of range for {self.shape}")
        pos = row * self.shape.width + col
        self._indices[pos].append(channel)
        self._counts[pos] += 1

    def finalize(self) -> CompressedIfmap:
        """Return the compressed ofmap accumulated so far."""
        s_ptr = np.zeros(self.shape.spatial_size + 1, dtype=np.int64)
        np.cumsum(self._counts, out=s_ptr[1:])
        flat = [channel for position in self._indices for channel in sorted(position)]
        c_idcs = np.asarray(flat, dtype=index_dtype(self.index_bytes))
        return CompressedIfmap(
            shape=self.shape, c_idcs=c_idcs, s_ptr=s_ptr, index_bytes=self.index_bytes
        )
