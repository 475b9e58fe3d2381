"""Statistics records produced by the behavioral timing model.

:class:`ClusterStats` (a list of :class:`CoreStats`) describes one kernel
execution; :class:`BatchClusterStats` holds the same counters for a whole
batch of executions as arrays with a leading batch axis, and
:meth:`BatchClusterStats.frame` recovers any one frame's
:class:`ClusterStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass
class CoreStats:
    """Cycle and instruction counters of a single worker core."""

    core_id: int = 0
    int_instructions: float = 0.0
    fp_instructions: float = 0.0
    total_cycles: float = 0.0
    fpu_busy_cycles: float = 0.0
    stall_cycles: float = 0.0
    spm_accesses: float = 0.0
    ssr_spm_accesses: float = 0.0
    atomic_operations: float = 0.0

    @property
    def instructions(self) -> float:
        """Total instructions retired (integer + FP)."""
        return self.int_instructions + self.fp_instructions

    @property
    def fpu_utilization(self) -> float:
        """Fraction of cycles during which the FPU performs useful work."""
        if self.total_cycles <= 0:
            return 0.0
        return min(1.0, self.fpu_busy_cycles / self.total_cycles)

    @property
    def ipc(self) -> float:
        """Instructions retired per cycle."""
        if self.total_cycles <= 0:
            return 0.0
        return self.instructions / self.total_cycles

    def merge(self, other: "CoreStats") -> "CoreStats":
        """Return the element-wise sum of two stat records (same core)."""
        return CoreStats(
            core_id=self.core_id,
            int_instructions=self.int_instructions + other.int_instructions,
            fp_instructions=self.fp_instructions + other.fp_instructions,
            total_cycles=self.total_cycles + other.total_cycles,
            fpu_busy_cycles=self.fpu_busy_cycles + other.fpu_busy_cycles,
            stall_cycles=self.stall_cycles + other.stall_cycles,
            spm_accesses=self.spm_accesses + other.spm_accesses,
            ssr_spm_accesses=self.ssr_spm_accesses + other.ssr_spm_accesses,
            atomic_operations=self.atomic_operations + other.atomic_operations,
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary form of the counters plus derived metrics."""
        return {
            "core_id": self.core_id,
            "int_instructions": self.int_instructions,
            "fp_instructions": self.fp_instructions,
            "total_cycles": self.total_cycles,
            "fpu_busy_cycles": self.fpu_busy_cycles,
            "stall_cycles": self.stall_cycles,
            "spm_accesses": self.spm_accesses,
            "ssr_spm_accesses": self.ssr_spm_accesses,
            "atomic_operations": self.atomic_operations,
            "fpu_utilization": self.fpu_utilization,
            "ipc": self.ipc,
        }


@dataclass
class ClusterStats:
    """Aggregate statistics of one kernel execution on the whole cluster."""

    core_stats: List[CoreStats] = field(default_factory=list)
    dma_cycles: float = 0.0
    dma_bytes: float = 0.0
    dma_exposed_cycles: float = 0.0
    total_cycles: float = 0.0
    label: str = ""

    @property
    def num_cores(self) -> int:
        """Number of worker cores that contributed statistics."""
        return len(self.core_stats)

    @property
    def compute_cycles(self) -> float:
        """Critical-path compute cycles (slowest worker core)."""
        if not self.core_stats:
            return 0.0
        return max(stats.total_cycles for stats in self.core_stats)

    @property
    def fpu_utilization(self) -> float:
        """Average FPU utilization over the worker cores, relative to total runtime."""
        if not self.core_stats or self.total_cycles <= 0:
            return 0.0
        busy = sum(stats.fpu_busy_cycles for stats in self.core_stats)
        return min(1.0, busy / (self.total_cycles * self.num_cores))

    @property
    def ipc(self) -> float:
        """Average per-core instructions per cycle, relative to total runtime."""
        if not self.core_stats or self.total_cycles <= 0:
            return 0.0
        instructions = sum(stats.instructions for stats in self.core_stats)
        return instructions / (self.total_cycles * self.num_cores)

    @property
    def total_instructions(self) -> float:
        """Total instructions retired across the cluster."""
        return sum(stats.instructions for stats in self.core_stats)

    @property
    def total_fp_instructions(self) -> float:
        """Total FP instructions retired across the cluster."""
        return sum(stats.fp_instructions for stats in self.core_stats)

    @property
    def total_spm_accesses(self) -> float:
        """Total scratchpad accesses (core loads/stores plus SSR streams)."""
        return sum(stats.spm_accesses + stats.ssr_spm_accesses for stats in self.core_stats)

    @property
    def total_int_instructions(self) -> float:
        """Total integer instructions retired across the cluster."""
        return sum(stats.int_instructions for stats in self.core_stats)

    @property
    def total_core_cycles(self) -> float:
        """Per-core total cycles summed over the cores, one core after another.

        Per-core cycles are not integral, so the order of additions shows in
        the last digit; the explicit loop fixes it to core order (builtin
        :func:`sum` compensates rounding from Python 3.12 on), the order
        :meth:`BatchClusterStats.total_core_cycles` adds in.
        """
        total = 0.0
        for stats in self.core_stats:
            total += stats.total_cycles
        return total

    def runtime_seconds(self, clock_hz: float) -> float:
        """Wall-clock runtime at the given clock frequency."""
        return self.total_cycles / clock_hz

    def merge(self, other: "ClusterStats", label: Optional[str] = None) -> "ClusterStats":
        """Concatenate two executions (e.g. consecutive layers) sequentially."""
        if self.num_cores and other.num_cores and self.num_cores != other.num_cores:
            raise ValueError("cannot merge ClusterStats with different core counts")
        if not self.core_stats:
            merged_cores = [CoreStats(**vars(s)) for s in other.core_stats]
        elif not other.core_stats:
            merged_cores = [CoreStats(**vars(s)) for s in self.core_stats]
        else:
            merged_cores = [a.merge(b) for a, b in zip(self.core_stats, other.core_stats)]
        return ClusterStats(
            core_stats=merged_cores,
            dma_cycles=self.dma_cycles + other.dma_cycles,
            dma_bytes=self.dma_bytes + other.dma_bytes,
            dma_exposed_cycles=self.dma_exposed_cycles + other.dma_exposed_cycles,
            total_cycles=self.total_cycles + other.total_cycles,
            label=label if label is not None else (self.label or other.label),
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of the aggregate metrics."""
        return {
            "label": self.label,
            "total_cycles": self.total_cycles,
            "compute_cycles": self.compute_cycles,
            "dma_cycles": self.dma_cycles,
            "dma_exposed_cycles": self.dma_exposed_cycles,
            "dma_bytes": self.dma_bytes,
            "fpu_utilization": self.fpu_utilization,
            "ipc": self.ipc,
            "total_instructions": self.total_instructions,
            "total_fp_instructions": self.total_fp_instructions,
            "total_spm_accesses": self.total_spm_accesses,
        }


@dataclass
class BatchClusterStats:
    """:class:`ClusterStats` of a batch of kernel executions, as arrays.

    Every per-core counter of :class:`CoreStats` is a ``(batch, cores)``
    array (the per-core ``total_cycles`` is named ``core_cycles`` here, to
    keep it apart from the cluster's), and every cluster-level counter a
    ``(batch,)`` array.  The arrays may be read-only broadcasts of one row
    (frames whose counters are identical share storage), so derive new
    arrays rather than writing in place.  :meth:`frame` rebuilds one
    frame's :class:`ClusterStats`; the properties mirror the
    :class:`ClusterStats` ones frame by frame, bit for bit.
    """

    int_instructions: np.ndarray
    fp_instructions: np.ndarray
    core_cycles: np.ndarray
    fpu_busy_cycles: np.ndarray
    stall_cycles: np.ndarray
    spm_accesses: np.ndarray
    ssr_spm_accesses: np.ndarray
    atomic_operations: np.ndarray
    dma_cycles: np.ndarray
    dma_bytes: np.ndarray
    dma_exposed_cycles: np.ndarray
    total_cycles: np.ndarray
    label: str = ""

    #: Per-core ``(batch, cores)`` counters, in :class:`CoreStats` field
    #: order (after ``core_id``), which :meth:`frame` and :meth:`repeat` rely on.
    CORE_FIELDS = (
        "int_instructions",
        "fp_instructions",
        "core_cycles",
        "fpu_busy_cycles",
        "stall_cycles",
        "spm_accesses",
        "ssr_spm_accesses",
        "atomic_operations",
    )
    #: Cluster-level ``(batch,)`` counters.
    CLUSTER_FIELDS = ("dma_cycles", "dma_bytes", "dma_exposed_cycles", "total_cycles")

    @property
    def batch_size(self) -> int:
        """Number of executions (frames) described."""
        return int(self.total_cycles.shape[0])

    @property
    def num_cores(self) -> int:
        """Number of worker cores that contributed statistics."""
        return int(self.core_cycles.shape[1])

    @classmethod
    def repeat(cls, stats: ClusterStats, batch_size: int) -> "BatchClusterStats":
        """``batch_size`` frames that each executed exactly like ``stats``.

        Every array is a read-only broadcast of ``stats``' one row.
        """
        per_core = np.array(
            [tuple(vars(core).values())[1:] for core in stats.core_stats], dtype=np.float64
        ).reshape(stats.num_cores, len(cls.CORE_FIELDS))
        cluster = np.array(
            [stats.dma_cycles, stats.dma_bytes, stats.dma_exposed_cycles, stats.total_cycles]
        )
        core_shape = (len(cls.CORE_FIELDS), batch_size, stats.num_cores)
        return cls(
            *np.broadcast_to(per_core.T[:, None], core_shape),
            *np.broadcast_to(cluster[:, None], (len(cls.CLUSTER_FIELDS), batch_size)),
            label=stats.label,
        )

    @classmethod
    def concatenate(cls, batches: Sequence["BatchClusterStats"]) -> "BatchClusterStats":
        """The frames of ``batches``, in order, as one batch.

        Every batch must have the same core count; the label is the first
        batch's.  A single batch comes back as it is, more than one as new
        arrays.
        """
        if len(batches) == 1:
            return batches[0]
        return cls(
            *(
                np.concatenate([getattr(batch, name) for batch in batches])
                for name in cls.CORE_FIELDS + cls.CLUSTER_FIELDS
            ),
            label=batches[0].label,
        )

    def frame(self, index: int) -> ClusterStats:
        """The :class:`ClusterStats` of frame ``index`` (a new, independent record)."""
        rows = [getattr(self, name)[index].tolist() for name in self.CORE_FIELDS]
        return ClusterStats(
            core_stats=[
                CoreStats(core_id, *counters) for core_id, counters in enumerate(zip(*rows))
            ],
            dma_cycles=float(self.dma_cycles[index]),
            dma_bytes=float(self.dma_bytes[index]),
            dma_exposed_cycles=float(self.dma_exposed_cycles[index]),
            total_cycles=float(self.total_cycles[index]),
            label=self.label,
        )

    def scaled(self, timesteps: int) -> "BatchClusterStats":
        """Every counter multiplied by ``timesteps`` (one execution per timestep).

        The columnar form of the reference loops' per-frame timestep scaling:
        totals scale, ratios such as FPU utilization and IPC do not.
        """
        return BatchClusterStats(
            **{
                name: getattr(self, name) * timesteps
                for name in self.CORE_FIELDS + self.CLUSTER_FIELDS
            },
            label=self.label,
        )

    def core_sums(self) -> np.ndarray:
        """Per-frame sums over the cores, shape ``(6, batch)``: integer, FP
        and all SPM accesses, core cycles, FPU-busy cycles and instructions.

        One :func:`numpy.cumsum` over the stacked quantities adds every row
        strictly in core order, as the per-frame :class:`ClusterStats`
        totals do (:func:`numpy.sum` would pair the cores up), so every
        frame's sum is bit-for-bit its :class:`ClusterStats` total even
        where the counters are not integral.
        """
        stacked = np.empty((6,) + self.core_cycles.shape)
        stacked[0] = self.int_instructions
        stacked[1] = self.fp_instructions
        np.add(self.spm_accesses, self.ssr_spm_accesses, out=stacked[2])
        stacked[3] = self.core_cycles
        stacked[4] = self.fpu_busy_cycles
        np.add(self.int_instructions, self.fp_instructions, out=stacked[5])
        return stacked.cumsum(axis=2)[:, :, -1]

    @property
    def total_int_instructions(self) -> np.ndarray:
        """Integer instructions retired across the cluster, per frame."""
        return self.core_sums()[0]

    @property
    def total_fp_instructions(self) -> np.ndarray:
        """FP instructions retired across the cluster, per frame."""
        return self.core_sums()[1]

    @property
    def total_spm_accesses(self) -> np.ndarray:
        """Scratchpad accesses (core loads/stores plus SSR streams), per frame."""
        return self.core_sums()[2]

    @property
    def total_core_cycles(self) -> np.ndarray:
        """Per-core total cycles summed over the cores in core order, per frame."""
        return self.core_sums()[3]

    @property
    def fpu_utilization(self) -> np.ndarray:
        """Per-frame :attr:`ClusterStats.fpu_utilization`."""
        return self.utilization_and_ipc()[0]

    @property
    def ipc(self) -> np.ndarray:
        """Per-frame :attr:`ClusterStats.ipc`."""
        return self.utilization_and_ipc()[1]

    def utilization_and_ipc(self, core_sums: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-frame FPU utilization and IPC, shape ``(2, batch)``.

        Each is a :meth:`core_sums` total over ``total_cycles * num_cores``,
        or 0 where a frame took no cycles; pass :meth:`core_sums` if it is
        already at hand.
        """
        sums = self.core_sums() if core_sums is None else core_sums
        cycles = self.total_cycles * self.num_cores
        ratios = np.divide(
            sums[4:], cycles, out=np.zeros((2, len(cycles))), where=cycles > 0
        )
        np.minimum(ratios[0], 1.0, out=ratios[0])
        return ratios

    def runtime_seconds(self, clock_hz: float) -> np.ndarray:
        """Per-frame wall-clock runtime at the given clock frequency."""
        return self.total_cycles / clock_hz
