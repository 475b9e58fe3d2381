"""Tightly-coupled data memory (SPM) model.

The cluster shares a 128 KiB, 32-bank scratchpad reached through a
single-cycle logarithmic interconnect.  Two aspects matter for SpikeStream:

* buffer allocation — kernels must fit their double-buffered ifmap, weight
  and worst-case ofmap tiles into the SPM, and
* bank conflicts — the random access pattern of indirect weight gathers from
  eight cores occasionally collides on a bank, adding stall cycles that are
  part of the gap to the ideal speedup reported in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .params import ClusterParams, DEFAULT_CLUSTER


class TcdmAllocationError(RuntimeError):
    """Raised when a buffer does not fit into the scratchpad."""


@dataclass
class TcdmBuffer:
    """A named, contiguous SPM allocation."""

    name: str
    offset: int
    size_bytes: int

    @property
    def end(self) -> int:
        """One-past-the-end byte offset of the buffer."""
        return self.offset + self.size_bytes


class Tcdm:
    """Scratchpad memory with a simple bump allocator and a conflict model."""

    def __init__(self, params: ClusterParams = DEFAULT_CLUSTER):
        self.params = params
        self._cursor = 0
        self._buffers: Dict[str, TcdmBuffer] = {}

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    @property
    def capacity_bytes(self) -> int:
        """Total scratchpad capacity."""
        return self.params.spm_bytes

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return self._cursor

    @property
    def free_bytes(self) -> int:
        """Bytes still available."""
        return self.capacity_bytes - self._cursor

    def allocate(self, name: str, size_bytes: int, align: int = 8) -> TcdmBuffer:
        """Allocate a named buffer, raising :class:`TcdmAllocationError` if full."""
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        if name in self._buffers:
            raise ValueError(f"buffer {name!r} already allocated")
        offset = (self._cursor + align - 1) // align * align
        if offset + size_bytes > self.capacity_bytes:
            raise TcdmAllocationError(
                f"buffer {name!r} of {size_bytes} B does not fit: "
                f"{self.free_bytes} B free of {self.capacity_bytes} B"
            )
        buffer = TcdmBuffer(name=name, offset=offset, size_bytes=size_bytes)
        self._buffers[name] = buffer
        self._cursor = offset + size_bytes
        return buffer

    def buffer(self, name: str) -> TcdmBuffer:
        """Look up a previously allocated buffer."""
        return self._buffers[name]

    def buffers(self) -> List[TcdmBuffer]:
        """All allocated buffers in allocation order."""
        return sorted(self._buffers.values(), key=lambda b: b.offset)

    def reset(self) -> None:
        """Free all buffers (start of a new tile phase)."""
        self._cursor = 0
        self._buffers = {}

    # ------------------------------------------------------------------ #
    # Bank-conflict model
    # ------------------------------------------------------------------ #
    def conflict_stall_factor(self, active_requesters: int) -> float:
        """Expected slowdown factor for random accesses from ``active_requesters`` cores.

        With ``k`` requesters uniformly addressing ``N`` banks each cycle, the
        expected number of banks serving a request is
        ``N * (1 - (1 - 1/N)**k)``, so the sustained per-requester throughput
        is that quantity divided by ``k``; the stall factor is its inverse.
        A single requester therefore never stalls (factor 1.0).
        """
        if active_requesters <= 0:
            raise ValueError(f"active_requesters must be positive, got {active_requesters}")
        banks = self.params.spm_banks
        served = banks * (1.0 - (1.0 - 1.0 / banks) ** active_requesters)
        throughput_per_requester = served / active_requesters
        return 1.0 / throughput_per_requester
