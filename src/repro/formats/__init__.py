"""Sparse spike-tensor representations.

The paper compares two ways of storing the binary input feature maps
(ifmaps) of an SNN besides the dense HWC layout (:mod:`repro.formats.dense`):
the address-event representation (AER) used by neuromorphic processors, and
the CSR-derived fiber-tree compression proposed by SpikeStream
(:mod:`repro.formats.csr_fiber`).

:mod:`repro.formats.convert` converts dense maps to and from the CSR-derived
format, and :mod:`repro.formats.footprint` holds the closed-form
memory-footprint model of both formats behind Figure 3a.
"""

from .csr_fiber import CompressedIfmap, CompressedVector
from .convert import (
    compress_ifmap,
    compress_vector,
    decompress_ifmap,
    decompress_vector,
)
from .footprint import aer_footprint_bytes, csr_footprint_bytes

__all__ = [
    "CompressedIfmap",
    "CompressedVector",
    "compress_ifmap",
    "compress_vector",
    "decompress_ifmap",
    "decompress_vector",
    "aer_footprint_bytes",
    "csr_footprint_bytes",
]
