"""Compressed spiking fully connected kernel (baseline and SpikeStream).

FC layers use the single-index-array compression (:class:`CompressedVector`):
one SpVA per SIMD output-channel group gathers the weight rows of the spiking
input neurons.  Groups are distributed across the worker cores with the same
workload-stealing scheduler used for receptive fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .batch_stats import cluster_stats_from_batch
from .scheduler import workload_stealing_schedule, workload_stealing_schedule_batch
from .spva import baseline_spva_cost, streaming_spva_cost
from .tiling import plan_fc_tiles


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

    lengths = np.full(groups, float(nnz))
    if streaming:
        spva = streaming_spva_cost(lengths, costs, conflict_factor=conflict_factor)
    else:
        spva = baseline_spva_cost(lengths, costs)

    act_int, act_fp = activation_cost_per_group(precision, costs)
    group_cycles = spva.cycles + costs.fc_setup_int_instrs + act_int + act_fp
    group_int = spva.int_instructions + costs.fc_setup_int_instrs + act_int
    group_fp = spva.fp_instructions + act_fp
    group_fp_busy = spva.fp_busy_cycles + act_fp
    group_spm = spva.spm_accesses + 4.0
    group_ssr = spva.ssr_spm_accesses

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
    label = f"{spec.name}-{'spikestream' if streaming else 'baseline'}-{precision.value}"
    return ClusterStats(
        core_stats=core_stats,
        dma_cycles=dma_cycles,
        dma_bytes=float(plan.total_dma_bytes),
        dma_exposed_cycles=dma_exposed,
        total_cycles=compute_cycles + dma_exposed,
        label=label,
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
    output-channel groups of a frame stream the same inputs, so the SpVA
    cost is computed once per frame (one vectorized pass over the batch)
    and broadcast across the groups, and the scheduler deals the groups to
    the cores round-robin in closed form.  Frame ``i`` of the returned
    :class:`~repro.arch.trace.BatchClusterStats` is bit-for-bit identical to
    a per-frame :func:`fc_layer_perf` call.
    """
    nnz_array = np.asarray(nnz, dtype=np.int64)
    if nnz_array.ndim != 1:
        raise ValueError(f"nnz must be 1-D (batch,), got shape {nnz_array.shape}")
    if np.any(nnz_array < 0) or np.any(nnz_array > spec.in_features):
        raise ValueError(f"every nnz must be in [0, {spec.in_features}]")
    num_cores = num_active_cores or params.num_worker_cores
    simd = precision.simd_width
    groups = (spec.out_features + simd - 1) // simd

    tcdm = Tcdm(params)
    conflict_factor = tcdm.conflict_stall_factor(num_cores)

    lengths = nnz_array.astype(np.float64)[:, None]
    if streaming:
        spva = streaming_spva_cost(lengths, costs, conflict_factor=conflict_factor)
    else:
        spva = baseline_spva_cost(lengths, costs)

    def per_group(column: np.ndarray) -> np.ndarray:
        return np.broadcast_to(column, (len(nnz_array), groups))

    act_int, act_fp = activation_cost_per_group(precision, costs)
    group_cycles = per_group(spva.cycles + costs.fc_setup_int_instrs + act_int + act_fp)
    group_int = per_group(spva.int_instructions + costs.fc_setup_int_instrs + act_int)
    group_fp = per_group(spva.fp_instructions + act_fp)
    group_fp_busy = per_group(spva.fp_busy_cycles + act_fp)
    group_spm = per_group(spva.spm_accesses + 4.0)
    group_ssr = per_group(spva.ssr_spm_accesses)

    schedule = workload_stealing_schedule_batch(
        group_cycles, num_cores, atomic_cost_cycles=costs.atomic_operation_cycles
    )
    plan = plan_fc_tiles(
        in_features=spec.in_features,
        out_features=spec.out_features,
        compressed_input_bytes=nnz_array * index_bytes + index_bytes,
        precision=precision,
        index_bytes=index_bytes,
        params=params,
        costs=costs,
    )
    label = f"{spec.name}-{'spikestream' if streaming else 'baseline'}-{precision.value}"
    return cluster_stats_from_batch(
        (group_int, group_fp, group_fp_busy, group_spm, group_ssr),
        schedule,
        costs,
        InstructionCache(params, costs),
        plan,
        label,
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
