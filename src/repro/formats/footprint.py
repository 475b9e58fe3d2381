"""Memory-footprint model for spike-tensor formats (Figure 3a).

The paper measures the bytes needed to store the ifmaps of each S-VGG11 layer
under the AER format and the proposed CSR-derived format, assuming 16-bit
indices and coordinates, and reports an average footprint reduction of about
2.75x in favour of the CSR format.

Neuromorphic processors such as Loihi and ODIN exchange spikes as
address-events (AER): each spike travels as the absolute coordinates of the
firing neuron plus a timestamp.  The CSR-derived format processes ifmaps
sequentially and therefore needs neither timestamps nor absolute spatial
coordinates.
"""

from __future__ import annotations

from ..types import INDEX_BYTES_DEFAULT, TensorShape

AER_FIELDS_PER_EVENT = 3
"""16-bit fields stored per AER event.

Following the paper's assumption of 16-bit values, an event is modeled as
three fields: the packed spatial coordinate, the channel index and the
timestamp.
"""


def csr_footprint_bytes(
    shape: TensorShape, nnz: int, index_bytes: int = INDEX_BYTES_DEFAULT
) -> int:
    """Bytes for the CSR-derived fiber-tree format.

    ``c_idcs`` stores one index per spike and ``s_ptr`` one pointer per
    spatial position plus one.
    """
    if nnz < 0:
        raise ValueError(f"nnz must be non-negative, got {nnz}")
    if nnz > shape.numel:
        raise ValueError(f"nnz ({nnz}) cannot exceed numel ({shape.numel})")
    return nnz * index_bytes + (shape.spatial_size + 1) * index_bytes


def aer_footprint_bytes(nnz: int, index_bytes: int = INDEX_BYTES_DEFAULT) -> int:
    """Bytes for the AER format: absolute coordinates plus a timestamp per spike."""
    if nnz < 0:
        raise ValueError(f"nnz must be non-negative, got {nnz}")
    return nnz * AER_FIELDS_PER_EVENT * index_bytes

