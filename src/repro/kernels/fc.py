"""Compressed spiking fully connected kernel (baseline and SpikeStream).

FC layers use the single-index-array compression (:class:`CompressedVector`):
one SpVA per SIMD output-channel group gathers the weight rows of the spiking
input neurons.  Groups are distributed across the worker cores with the same
workload-stealing scheduler used for receptive fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from ..arch.icache import InstructionCache
from ..arch.params import ClusterParams, CostModelParams, DEFAULT_CLUSTER, DEFAULT_COSTS
from ..arch.tcdm import Tcdm
from ..arch.trace import BatchClusterStats, ClusterStats, CoreStats
from ..formats.convert import compress_vector
from ..formats.csr_fiber import CompressedVector
from ..snn.neuron import LIFParameters
from ..types import Precision
from .activation import activation_cost_per_group, fused_lif_activation
from .batch_stats import COSTER_CACHE_SIZE, cluster_stats_from_batch, layer_label
from .scheduler import workload_stealing_schedule, workload_stealing_schedule_batch
from .spva import SpvaCost, spva_cost
from .tiling import TileLayout, fc_tile_layout, plan_fc_tiles


@dataclass
class FcLayerSpec:
    """Static description of one spiking fully connected layer."""

    name: str
    in_features: int
    out_features: int
    lif: LIFParameters = field(default_factory=LIFParameters)

    def __post_init__(self) -> None:
        if self.in_features <= 0 or self.out_features <= 0:
            raise ValueError("in_features and out_features must be positive")

    def weight_bytes(self, precision: Precision) -> int:
        """Bytes of the weight matrix at the given precision."""
        return self.in_features * self.out_features * precision.bytes


def _group_metrics(
    spva: SpvaCost, precision: Precision, costs: CostModelParams
) -> Tuple[np.ndarray, ...]:
    """Per-group cycles, then the metric rows in ``METRIC_ROWS`` order."""
    act_int, act_fp = activation_cost_per_group(precision, costs)
    return (
        spva.cycles + costs.fc_setup_int_instrs + act_int + act_fp,
        spva.int_instructions + costs.fc_setup_int_instrs + act_int,
        spva.fp_instructions + act_fp,
        spva.fp_busy_cycles + act_fp,
        spva.spm_accesses + 4.0,
        spva.ssr_spm_accesses,
    )


def fc_layer_perf(
    spec: FcLayerSpec,
    nnz: int,
    precision: Precision,
    streaming: bool,
    params: ClusterParams = DEFAULT_CLUSTER,
    costs: CostModelParams = DEFAULT_COSTS,
    index_bytes: int = 2,
    num_active_cores: Optional[int] = None,
) -> ClusterStats:
    """Cycle-accounting model of the compressed FC kernel.

    ``nnz`` is the number of spiking input neurons (the SpVA stream length
    shared by every output-channel group).
    """
    if nnz < 0 or nnz > spec.in_features:
        raise ValueError(f"nnz must be in [0, {spec.in_features}], got {nnz}")
    num_cores = num_active_cores or params.num_worker_cores
    simd = precision.simd_width
    groups = (spec.out_features + simd - 1) // simd

    tcdm = Tcdm(params)
    conflict_factor = tcdm.conflict_stall_factor(num_cores)

    spva = spva_cost(np.full(groups, float(nnz)), costs, streaming, conflict_factor)
    group_cycles, group_int, group_fp, group_fp_busy, group_spm, group_ssr = _group_metrics(
        spva, precision, costs
    )

    schedule = workload_stealing_schedule(
        group_cycles, num_cores, atomic_cost_cycles=costs.atomic_operation_cycles
    )

    compressed_bytes = nnz * index_bytes + index_bytes
    plan = plan_fc_tiles(
        in_features=spec.in_features,
        out_features=spec.out_features,
        compressed_input_bytes=compressed_bytes,
        precision=precision,
        index_bytes=index_bytes,
        params=params,
        costs=costs,
    )
    dma_cycles = plan.dma_cycles(costs)

    icache = InstructionCache(params, costs)
    core_stats = []
    for core_id in range(num_cores):
        indices = np.asarray(schedule.assignments[core_id], dtype=np.int64)
        busy = float(schedule.core_busy_cycles[core_id])
        atomics = float(schedule.atomic_operations_per_core[core_id])
        int_instrs = float(np.sum(group_int[indices])) + atomics
        fp_instrs = float(np.sum(group_fp[indices]))
        fp_busy = float(np.sum(group_fp_busy[indices]))
        icache_stall = icache.miss_cycles(int_instrs + fp_instrs, tiles=plan.num_tiles)
        total = busy + atomics * costs.atomic_operation_cycles + icache_stall
        core_stats.append(
            CoreStats(
                core_id=core_id,
                int_instructions=int_instrs,
                fp_instructions=fp_instrs,
                total_cycles=total,
                fpu_busy_cycles=fp_busy,
                stall_cycles=max(0.0, total - int_instrs - fp_instrs),
                spm_accesses=float(np.sum(group_spm[indices])),
                ssr_spm_accesses=float(np.sum(group_ssr[indices])),
                atomic_operations=atomics,
            )
        )

    compute_cycles = max(s.total_cycles for s in core_stats)
    dma_exposed = max(0.0, dma_cycles - compute_cycles)
    return ClusterStats(
        core_stats=core_stats,
        dma_cycles=dma_cycles,
        dma_bytes=float(plan.total_dma_bytes),
        dma_exposed_cycles=dma_exposed,
        total_cycles=compute_cycles + dma_exposed,
        label=layer_label(spec.name, streaming, precision),
    )


@dataclass(frozen=True)
class _FcCoster:
    """The frame-independent costing state of one FC layer configuration.

    ``per_count`` is the read-only ``(6, in_features + 1)`` table of the
    per-group cycles and metric rows (:func:`_group_metrics`) per input
    spike count.
    """

    per_count: np.ndarray
    groups: int
    tiles: TileLayout
    icache: InstructionCache


@lru_cache(maxsize=COSTER_CACHE_SIZE)
def _fc_coster(
    in_features: int,
    out_features: int,
    precision: Precision,
    streaming: bool,
    num_cores: int,
    index_bytes: int,
    params: ClusterParams,
    costs: CostModelParams,
) -> _FcCoster:
    """Build the :class:`_FcCoster` of one configuration (memoised)."""
    conflict_factor = Tcdm(params).conflict_stall_factor(num_cores)
    spva = spva_cost(
        np.arange(in_features + 1, dtype=np.float64), costs, streaming, conflict_factor
    )
    per_count = np.stack(_group_metrics(spva, precision, costs))
    per_count.setflags(write=False)
    return _FcCoster(
        per_count=per_count,
        groups=(out_features + precision.simd_width - 1) // precision.simd_width,
        tiles=fc_tile_layout(in_features, out_features, precision, index_bytes, params),
        icache=InstructionCache(params, costs),
    )


def fc_layer_perf_batch(
    spec: FcLayerSpec,
    nnz: Sequence[int],
    precision: Precision,
    streaming: bool,
    params: ClusterParams = DEFAULT_CLUSTER,
    costs: CostModelParams = DEFAULT_COSTS,
    index_bytes: int = 2,
    num_active_cores: Optional[int] = None,
) -> BatchClusterStats:
    """Batch-axis entry point of :func:`fc_layer_perf`.

    ``nnz`` holds the spiking input count of every frame in the batch.  All
    output-channel groups of a frame stream the same inputs, so each
    frame's group metrics are one column of the per-count table compiled
    once per configuration (:func:`_fc_coster`, memoised by value),
    broadcast across the groups, and the scheduler deals the groups to the
    cores round-robin in closed form.  Frame ``i`` of the returned
    :class:`~repro.arch.trace.BatchClusterStats` is bit-for-bit identical to
    a per-frame :func:`fc_layer_perf` call.
    """
    nnz_array = np.asarray(nnz, dtype=np.int64)
    if nnz_array.ndim != 1:
        raise ValueError(f"nnz must be 1-D (batch,), got shape {nnz_array.shape}")
    if (nnz_array < 0).any() or (nnz_array > spec.in_features).any():
        raise ValueError(f"every nnz must be in [0, {spec.in_features}]")
    num_cores = num_active_cores or params.num_worker_cores
    coster = _fc_coster(
        spec.in_features, spec.out_features, precision, streaming, num_cores, index_bytes,
        params, costs,
    )
    # Every group of a frame costs the same: one column per metric, broadcast.
    group_cycles, *metric_rows = np.broadcast_to(
        np.take(coster.per_count, nnz_array[:, None], axis=1),
        (len(coster.per_count), len(nnz_array), coster.groups),
    )
    schedule = workload_stealing_schedule_batch(
        group_cycles, num_cores, atomic_cost_cycles=costs.atomic_operation_cycles
    )
    return cluster_stats_from_batch(
        metric_rows,
        schedule,
        costs,
        coster.icache,
        coster.tiles.plan(nnz_array * index_bytes + index_bytes),
        layer_label(spec.name, streaming, precision),
    )


def fc_layer_functional(
    spec: FcLayerSpec,
    compressed_input: CompressedVector,
    weights: np.ndarray,
    membrane: Optional[np.ndarray] = None,
    precision: Precision = Precision.FP64,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, CompressedVector]:
    """Execute the compressed FC layer functionally.

    Returns ``(input_currents, new_membrane, output_spikes, compressed_output)``.
    """
    if compressed_input.length != spec.in_features:
        raise ValueError(
            f"compressed input has length {compressed_input.length}, expected {spec.in_features}"
        )
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (spec.in_features, spec.out_features):
        raise ValueError(
            f"weights have shape {weights.shape}, expected "
            f"{(spec.in_features, spec.out_features)}"
        )
    if membrane is None:
        membrane = np.zeros(spec.out_features, dtype=np.float64)
    membrane = np.asarray(membrane, dtype=np.float64)
    if membrane.shape != (spec.out_features,):
        raise ValueError(f"membrane has shape {membrane.shape}, expected {(spec.out_features,)}")

    idcs = compressed_input.idcs.astype(np.int64)
    currents = weights[idcs].sum(axis=0) if len(idcs) else np.zeros(spec.out_features)
    new_membrane, spikes = fused_lif_activation(membrane, currents, spec.lif, precision)
    compressed_output = compress_vector(spikes, index_bytes=compressed_input.index_bytes)
    return currents, new_membrane, spikes, compressed_output
