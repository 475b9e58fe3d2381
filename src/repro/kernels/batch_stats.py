"""Shared reduction of batched kernel schedules into columnar cluster stats.

The conv and FC batch entry points produce the same intermediates — five
``(batch, items)`` arrays of per-item metrics plus a
:class:`~repro.kernels.scheduler.BatchStealingSchedule` — and reduce it to
one :class:`~repro.arch.trace.BatchClusterStats` in exactly the same way.
This module holds that reduction so a fix to the accounting applies to
every batched kernel at once.

Bit-for-bit equivalence with the scalar kernels: the scalar paths sum each
core's items with ``np.sum(metric[indices])``, a pairwise reduction, while
:func:`numpy.bincount` here adds them one after another.  The two orders
give the same float64 result because every metric row is integer-valued
and far below ``2**53``: each partial sum is exact, so no order rounds.
The inputs guarantee it — integral spike counts
(:func:`~repro.kernels.conv.conv_layer_perf_batch` rejects any other;
:func:`~repro.kernels.fc.fc_layer_perf_batch` takes its counts as
integers) and integral instruction-count coefficients (checked by
:class:`~repro.arch.params.CostModelParams`).  The non-integral per-core
cycles never pass through such a sum: the scheduler produces them, and
everything after is element-wise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..arch.icache import InstructionCache
from ..arch.params import CostModelParams
from ..arch.trace import BatchClusterStats
from .scheduler import BatchStealingSchedule
from .tiling import TilePlan

#: Order of the metric rows consumed by :func:`cluster_stats_from_batch`.
METRIC_ROWS = ("int_instructions", "fp_instructions", "fp_busy", "spm", "ssr")


def cluster_stats_from_batch(
    metric_rows: Sequence[np.ndarray],
    schedule: BatchStealingSchedule,
    costs: CostModelParams,
    icache: InstructionCache,
    plan: TilePlan,
    label: str,
) -> BatchClusterStats:
    """Reduce a batched schedule plus per-item metrics to columnar stats.

    Parameters
    ----------
    metric_rows:
        Five ``(batch, items)`` arrays in :data:`METRIC_ROWS` order, every
        entry integer-valued (see the module docstring).
    plan:
        The batch's :class:`TilePlan`, planned over the ``(batch,)``
        compressed input sizes (drives DMA cycles and the icache's
        cold-miss tile count).
    """
    batch = schedule.batch_size
    num_cores = schedule.num_cores
    bins = (np.arange(0, batch * num_cores, num_cores)[:, None] + schedule.core_of_item).ravel()
    sums = [
        np.bincount(bins, weights=row.ravel(), minlength=batch * num_cores).reshape(
            batch, num_cores
        )
        for row in metric_rows
    ]
    atomics = schedule.atomic_operations_per_core
    int_instrs = sums[0] + atomics
    fp_instrs = sums[1]
    tiles = np.reshape(plan.num_tiles, (-1, 1))
    icache_stall = icache.miss_cycles(int_instrs + fp_instrs, tiles=tiles)
    core_cycles = schedule.core_busy_cycles + atomics * costs.atomic_operation_cycles + icache_stall
    compute_cycles = core_cycles.max(axis=1)
    dma_cycles = plan.dma_cycles(costs)
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
        dma_bytes=plan.total_dma_bytes.astype(np.float64),
        dma_exposed_cycles=dma_exposed,
        total_cycles=compute_cycles + dma_exposed,
        label=label,
    )
