"""Shared tail of the batched kernels, and the memo of their compiled costers.

The conv and FC batch entry points end the same way: per-core sums of five
integer-valued metrics (:data:`METRIC_ROWS`) and a
:class:`~repro.kernels.scheduler.BatchStealingSchedule`, which a
:class:`LayerTail` turns into one :class:`~repro.arch.trace.BatchClusterStats`,
so a fix to the accounting applies to every batched kernel at once.  A conv
layer sums each core's items with :func:`core_sums`.

Compiled costers: everything a batched kernel derives from the layer's
geometry and the hardware model alone is built once per configuration by a
function memoised with ``lru_cache(maxsize=COSTER_CACHE_SIZE)`` on the
value of its arguments: the per-count SpVA tables (the conflict factor
folded in), the per-RF constants, the channel-group count and the
:class:`LayerTail`, which holds the icache model and the tile plans of every
compressed input size the layer can see
(:class:`~repro.kernels.tiling.TileTable`), with their DMA and cold-miss
cycles.  A call then does only the work that depends on the spike counts: a
table read, the window sums, the stealing schedule, one bincount over all
metric rows and a couple of dozen element-wise operations on
``(batch, cores)`` arrays.  Threads share the memo; two that
miss on the same key at once both build the entry, which is harmless, and
the tables are read-only.  A per-count table read with :func:`numpy.take`
is bit-for-bit the cost function evaluated on the counts themselves: every
SpVA cost is an element-wise function of one integral count in
``0..in_channels``, so the table built on :func:`numpy.arange` holds
exactly the value each count would produce.  Likewise a tabulated plan is
the plan of every size of its class, computed by the same integer and
floating-point operations.

Bit-for-bit equivalence with the scalar kernels: the scalar paths sum each
core's items with ``np.sum(metric[indices])``, a pairwise reduction, while
:func:`numpy.bincount` here adds them one after another.  The two orders
give the same float64 result because every metric row is integer-valued
and far below ``2**53``: each partial sum is exact, so no order rounds.
The inputs guarantee it — integral spike counts
(:func:`~repro.kernels.conv.conv_layer_perf_batch` rejects any other;
:func:`~repro.kernels.fc.fc_layer_perf_batch` takes its counts as
integers) and integral instruction-count coefficients (checked by
:class:`~repro.arch.params.CostModelParams`).  For the same reason an FC
layer, whose groups all cost the same, multiplies a frame's metric by each
core's claim count instead of adding it that many times.  The non-integral
per-core cycles never pass through such a sum: the scheduler produces
them, and everything after is element-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..arch.icache import InstructionCache
from ..arch.params import CostModelParams
from ..arch.trace import BatchClusterStats
from ..types import Precision
from .scheduler import BatchStealingSchedule
from .tiling import TileLayout

#: Order of the metric rows consumed by :meth:`LayerTail.stats`.  Each
#: item's integer instructions include the atomic operation of its claim.
METRIC_ROWS = ("int_instructions", "fp_instructions", "fp_busy", "spm", "ssr")

#: Compiled costers each kernel's memo keeps, least recently used dropped
#: first.  S-VGG11 at one configuration needs 7 conv, 3 FC and 1 encoding
#: entries, a sweep over eight core counts 56 conv entries; an entry holds
#: at most a few hundred KiB of tables.
COSTER_CACHE_SIZE = 128


def layer_label(name: str, streaming: bool, precision: Precision) -> str:
    """The ``label`` of a kernel's stats, e.g. ``conv2-spikestream-fp16``."""
    return f"{name}-{'spikestream' if streaming else 'baseline'}-{precision.value}"


def core_sums(rows: np.ndarray, schedule: BatchStealingSchedule) -> np.ndarray:
    """Each ``(batch, items)`` metric row of ``rows`` summed per claiming core.

    Returns a ``(rows, batch, cores)`` array from one :func:`numpy.bincount`
    over all rows, which adds every core's items in item order.
    """
    metrics, batch, _ = rows.shape
    cores = schedule.num_cores
    bins = schedule.core_of_item + np.arange(0, metrics * batch * cores, cores).reshape(
        metrics, batch, 1
    )
    sums = np.bincount(bins.ravel(), weights=rows.ravel(), minlength=metrics * batch * cores)
    return sums.reshape(metrics, batch, cores)


@dataclass(frozen=True)
class LayerTail:
    """The frame-independent tail of one layer configuration's costing.

    ``steps`` are the :class:`~repro.kernels.tiling.TileTable`'s class
    boundaries, and ``per_class`` holds, for each class, the DMA bytes
    beyond the compressed input, the DMA setup cycles and the icache's
    cold-miss cycles, each computed as the scalar kernels compute them from
    the class's plan.
    """

    steps: np.ndarray
    per_class: np.ndarray
    icache: InstructionCache
    atomic_operation_cycles: float
    dma_bytes_per_cycle: float

    @classmethod
    def compile(
        cls,
        layout: TileLayout,
        max_input_bytes: int,
        icache: InstructionCache,
        costs: CostModelParams,
    ) -> "LayerTail":
        """The tail of a layer tiled by ``layout``, for inputs of at most
        ``max_input_bytes`` compressed bytes."""
        table = layout.tabulate(max_input_bytes)
        per_class = np.stack([
            table.fixed_dma_bytes.astype(np.float64),
            table.num_dma_transfers * costs.dma_setup_cycles,
            icache.cold_miss_cycles(table.num_tiles),
        ])
        for table_array in (table.steps, per_class):
            table_array.setflags(write=False)
        return cls(
            steps=table.steps,
            per_class=per_class,
            icache=icache,
            atomic_operation_cycles=costs.atomic_operation_cycles,
            dma_bytes_per_cycle=costs.dma_bytes_per_cycle,
        )

    def stats(
        self,
        sums: Sequence[np.ndarray],
        schedule: BatchStealingSchedule,
        compressed_input_bytes: np.ndarray,
        label: str,
    ) -> BatchClusterStats:
        """Columnar cluster stats from per-core metric sums.

        ``sums`` holds five ``(batch, cores)`` arrays in :data:`METRIC_ROWS`
        order, every entry integer-valued (see the module docstring), the
        integer instructions already counting each claim's atomic
        operation; ``compressed_input_bytes`` is the ``(batch,)`` integer
        size of each frame's compressed input, which picks its tile plan.
        """
        fixed_bytes, setup_cycles, cold_cycles = self.per_class[
            :, np.searchsorted(self.steps, compressed_input_bytes, side="right")
        ]
        atomics = schedule.atomic_operations_per_core
        int_instrs, fp_instrs = sums[0], sums[1]
        icache_stall = cold_cycles[:, None] + self.icache.steady_miss_cycles(
            int_instrs + fp_instrs
        )
        core_cycles = (
            schedule.core_busy_cycles + atomics * self.atomic_operation_cycles + icache_stall
        )
        compute_cycles = core_cycles.max(axis=1)
        dma_bytes = compressed_input_bytes + fixed_bytes
        dma_cycles = dma_bytes / self.dma_bytes_per_cycle + setup_cycles
        dma_exposed = np.maximum(dma_cycles - compute_cycles, 0.0)
        return BatchClusterStats(
            int_instructions=int_instrs,
            fp_instructions=fp_instrs,
            core_cycles=core_cycles,
            fpu_busy_cycles=sums[2],
            stall_cycles=np.maximum(core_cycles - int_instrs - fp_instrs, 0.0),
            spm_accesses=sums[3],
            ssr_spm_accesses=sums[4],
            atomic_operations=atomics,
            dma_cycles=dma_cycles,
            dma_bytes=dma_bytes,
            dma_exposed_cycles=dma_exposed,
            total_cycles=compute_cycles + dma_exposed,
            label=label,
        )
