"""Compressed spiking convolution kernel (baseline and SpikeStream variants).

The kernel follows the dataflow of Figure 2: every worker core claims a
receptive field (RF, one output spatial position) through the
workload-stealing scheduler and processes it depth-first.  For each SIMD
output-channel group and each of the ``kh x kw`` spatial positions of the RF
it performs one SpVA over the spiking input channels at that position; the
fused LIF activation then thresholds the accumulated current and appends the
firing output channels to the compressed ofmap.

Three entry points are provided:

* :func:`conv_layer_perf` — the cycle/energy-activity model, vectorized over
  all RFs from the per-position spike-count map;
* :func:`conv_layer_perf_batch` — the same model for a batch of maps at
  once, returning columnar :class:`~repro.arch.trace.BatchClusterStats`;
* :func:`conv_layer_functional` — the NumPy execution over the compressed
  ifmap, used to validate the kernel against the dense golden reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..arch.params import ClusterParams, CostModelParams, DEFAULT_CLUSTER, DEFAULT_COSTS
from ..arch.icache import InstructionCache
from ..arch.tcdm import Tcdm
from ..arch.trace import BatchClusterStats, ClusterStats, CoreStats
from ..formats.csr_fiber import CompressedIfmap, CompressedIfmapBuilder
from ..snn.neuron import LIFParameters
from ..types import Precision, TensorShape
from .activation import activation_cost_per_group, fused_lif_activation
from .batch_stats import cluster_stats_from_batch
from .scheduler import workload_stealing_schedule, workload_stealing_schedule_batch
from .spva import baseline_spva_cost, spva_gather_accumulate, streaming_spva_cost
from .tiling import plan_conv_tiles


@dataclass
class ConvLayerSpec:
    """Static description of one spiking convolutional layer."""

    name: str
    input_shape: TensorShape
    in_channels: int
    out_channels: int
    kernel_size: int = 3
    stride: int = 1
    padding: int = 1
    lif: LIFParameters = field(default_factory=LIFParameters)

    def __post_init__(self) -> None:
        if self.input_shape.channels != self.in_channels:
            raise ValueError(
                f"input_shape has {self.input_shape.channels} channels but in_channels is "
                f"{self.in_channels}"
            )
        for attr in ("kernel_size", "stride", "in_channels", "out_channels"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.padding < 0:
            raise ValueError("padding must be non-negative")

    @property
    def padded_input_shape(self) -> TensorShape:
        """Shape of the zero-padded ifmap held in memory."""
        return TensorShape(
            self.input_shape.height + 2 * self.padding,
            self.input_shape.width + 2 * self.padding,
            self.in_channels,
        )

    @property
    def output_shape(self) -> TensorShape:
        """Shape of the output spike map."""
        out_h = (self.input_shape.height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (self.input_shape.width + 2 * self.padding - self.kernel_size) // self.stride + 1
        return TensorShape(out_h, out_w, self.out_channels)

    @property
    def weight_shape(self) -> Tuple[int, int, int, int]:
        """Filter-bank shape ``(kh, kw, C_in, C_out)``."""
        return (self.kernel_size, self.kernel_size, self.in_channels, self.out_channels)

    def weight_bytes(self, precision: Precision) -> int:
        """Bytes of the weight tensor at the given precision."""
        return int(np.prod(self.weight_shape)) * precision.bytes


def pad_counts(spec: "ConvLayerSpec", counts: np.ndarray) -> np.ndarray:
    """Zero-pad per-position spike-count map(s) to ``spec``'s padded geometry.

    ``counts`` holds the *unpadded* per-position spike counts with the two
    spatial axes last — ``(H, W)`` for one frame or ``(..., H, W)`` with any
    leading axes (e.g. a batch) — and comes back as float64 with the zero
    padding ring applied to the spatial axes only.  The padding ring of a
    spiking ifmap never carries spikes, so padding the count map with zeros
    is exactly the count map of the padded ifmap; this helper is the single
    home of that logic for the statistical draw, the batched draw and the
    functional activity paths.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim < 2:
        raise ValueError(f"counts must have at least 2 spatial axes, got shape {counts.shape}")
    if not spec.padding:
        return counts
    pad_width = [(0, 0)] * (counts.ndim - 2) + [(spec.padding, spec.padding)] * 2
    return np.pad(counts, pad_width)


def window_sum(values: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Sliding-window sum of a 2-D map (the per-RF aggregation).

    Returns an array of shape ``(out_h, out_w)`` where each entry is the sum
    of the ``kernel x kernel`` window of ``values`` starting at that output
    position times the stride.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D, got shape {values.shape}")
    height, width = values.shape
    if kernel > height or kernel > width:
        raise ValueError("kernel larger than the map")
    # Integral image with a zero border.
    integral = np.zeros((height + 1, width + 1), dtype=np.float64)
    integral[1:, 1:] = np.cumsum(np.cumsum(values, axis=0), axis=1)
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    ys = np.arange(out_h) * stride
    xs = np.arange(out_w) * stride
    y0, x0 = np.meshgrid(ys, xs, indexing="ij")
    y1, x1 = y0 + kernel, x0 + kernel
    return integral[y1, x1] - integral[y0, x1] - integral[y1, x0] + integral[y0, x0]


def window_sum_batch(values: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Sliding-window sum of a batch of 2-D maps, shape ``(B, H, W)``.

    Batched counterpart of :func:`window_sum`; each ``values[b]`` produces the
    exact same (bit-for-bit) window sums as ``window_sum(values[b], ...)``
    because :func:`numpy.cumsum` accumulates strictly sequentially along the
    requested axis, and the four corners of every window, read from the
    integral image as strided slices, are combined element-wise in the same
    operand order.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError(f"values must be 3-D (batch, H, W), got shape {values.shape}")
    batch, height, width = values.shape
    if kernel > height or kernel > width:
        raise ValueError("kernel larger than the map")
    integral = np.zeros((batch, height + 1, width + 1), dtype=np.float64)
    inner = integral[:, 1:, 1:]
    np.cumsum(values, axis=1, out=inner)
    np.cumsum(inner, axis=2, out=inner)
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1

    def span(start: int, count: int) -> slice:
        return slice(start, start + (count - 1) * stride + 1, stride)

    top, bottom = span(0, out_h), span(kernel, out_h)
    left, right = span(0, out_w), span(kernel, out_w)
    return (
        integral[:, bottom, right]
        - integral[:, top, right]
        - integral[:, bottom, left]
        + integral[:, top, left]
    )


def conv_layer_perf(
    spec: ConvLayerSpec,
    spike_counts: np.ndarray,
    precision: Precision,
    streaming: bool,
    params: ClusterParams = DEFAULT_CLUSTER,
    costs: CostModelParams = DEFAULT_COSTS,
    index_bytes: int = 2,
    num_active_cores: Optional[int] = None,
    strided_indirect: bool = False,
) -> ClusterStats:
    """Cycle-accounting model of the compressed convolution kernel.

    Parameters
    ----------
    spike_counts:
        Per-spatial-position spike counts of the *padded* ifmap, shape
        ``(Hp, Wp)`` (e.g. ``CompressedIfmap.spike_counts()``).
    streaming:
        False for the parallel SIMD baseline, True for SpikeStream.
    strided_indirect:
        Enable the strided-indirect SSR extension (future work in the paper):
        the gather index array is replayed across channel groups, lowering the
        per-element streaming cost.  Only meaningful with ``streaming=True``.
    """
    if strided_indirect and not streaming:
        raise ValueError("strided_indirect requires streaming=True")
    spike_counts = np.asarray(spike_counts, dtype=np.float64)
    padded = spec.padded_input_shape
    if spike_counts.shape != (padded.height, padded.width):
        raise ValueError(
            f"spike_counts has shape {spike_counts.shape}, expected "
            f"{(padded.height, padded.width)}"
        )
    num_cores = num_active_cores or params.num_worker_cores
    output_shape = spec.output_shape
    simd = precision.simd_width
    groups = (spec.out_channels + simd - 1) // simd
    k2 = spec.kernel_size * spec.kernel_size

    tcdm = Tcdm(params)
    conflict_factor = tcdm.conflict_stall_factor(num_cores)

    # ---- per-position SpVA costs, then per-RF window aggregation ---------
    flat_counts = spike_counts.reshape(-1)
    if streaming:
        per_element = (
            costs.strided_indirect_cycles_per_element if strided_indirect else None
        )
        position_cost = streaming_spva_cost(
            flat_counts, costs, conflict_factor=conflict_factor, cycles_per_element=per_element
        )
    else:
        position_cost = baseline_spva_cost(flat_counts, costs)

    def per_rf(values: np.ndarray) -> np.ndarray:
        return window_sum(
            values.reshape(padded.height, padded.width), spec.kernel_size, spec.stride
        ).reshape(-1)

    rf_spva_cycles = per_rf(position_cost.cycles)
    rf_spva_int = per_rf(position_cost.int_instructions)
    rf_spva_fp = per_rf(position_cost.fp_instructions)
    rf_spva_fp_busy = per_rf(position_cost.fp_busy_cycles)
    rf_spva_spm = per_rf(position_cost.spm_accesses)
    rf_spva_ssr = per_rf(position_cost.ssr_spm_accesses)

    act_int, act_fp = activation_cost_per_group(precision, costs)
    group_fixed_cycles = costs.group_overhead_int_instrs + act_int + act_fp
    group_fixed_int = costs.group_overhead_int_instrs + act_int
    group_fixed_fp = act_fp

    rf_cycles = (
        costs.rf_overhead_int_instrs
        + groups * (rf_spva_cycles + group_fixed_cycles)
    )
    rf_int = costs.rf_overhead_int_instrs + groups * (rf_spva_int + group_fixed_int)
    rf_fp = groups * (rf_spva_fp + group_fixed_fp)
    rf_fp_busy = groups * (rf_spva_fp_busy + group_fixed_fp)
    rf_spm = groups * (rf_spva_spm + 4.0)  # membrane load/store + ofmap append
    rf_ssr = groups * rf_spva_ssr

    # ---- workload stealing over receptive fields --------------------------
    schedule = workload_stealing_schedule(
        rf_cycles, num_cores, atomic_cost_cycles=costs.atomic_operation_cycles
    )

    # ---- tiling and DMA ----------------------------------------------------
    nnz = float(np.sum(spike_counts))
    compressed_bytes = int(nnz * index_bytes + (padded.spatial_size + 1) * index_bytes)
    plan = plan_conv_tiles(
        input_shape=padded,
        output_shape=output_shape,
        kernel_size=spec.kernel_size,
        compressed_ifmap_bytes=compressed_bytes,
        precision=precision,
        index_bytes=index_bytes,
        params=params,
        costs=costs,
    )
    dma_cycles = plan.dma_cycles(costs)

    # ---- per-core statistics ----------------------------------------------
    icache = InstructionCache(params, costs)
    core_stats = []
    for core_id in range(num_cores):
        indices = np.asarray(schedule.assignments[core_id], dtype=np.int64)
        busy = float(schedule.core_busy_cycles[core_id])
        atomics = float(schedule.atomic_operations_per_core[core_id])
        int_instrs = float(np.sum(rf_int[indices])) + atomics
        fp_instrs = float(np.sum(rf_fp[indices]))
        fp_busy = float(np.sum(rf_fp_busy[indices]))
        spm = float(np.sum(rf_spm[indices]))
        ssr = float(np.sum(rf_ssr[indices]))
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
                spm_accesses=spm,
                ssr_spm_accesses=ssr,
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


def conv_layer_perf_batch(
    spec: ConvLayerSpec,
    spike_counts: np.ndarray,
    precision: Precision,
    streaming: bool,
    params: ClusterParams = DEFAULT_CLUSTER,
    costs: CostModelParams = DEFAULT_COSTS,
    index_bytes: int = 2,
    num_active_cores: Optional[int] = None,
    strided_indirect: bool = False,
) -> BatchClusterStats:
    """Batch-axis entry point of :func:`conv_layer_perf`.

    ``spike_counts`` has shape ``(B, Hp, Wp)``: one padded per-position
    spike-count map per frame, every count a non-negative integer.  All
    per-position SpVA costs and the per-RF window aggregation are computed
    for the whole batch in one vectorized pass, the workload-stealing
    schedules of all frames in one
    :func:`~repro.kernels.scheduler.workload_stealing_schedule_batch` call,
    the tiling plans over the ``(B,)`` compressed ifmap sizes in one
    :func:`~repro.kernels.tiling.plan_conv_tiles` call, and the per-core
    reductions in :func:`~repro.kernels.batch_stats.cluster_stats_from_batch`.
    Frame ``i`` of the returned :class:`~repro.arch.trace.BatchClusterStats`
    is bit-for-bit identical to calling :func:`conv_layer_perf` on that
    frame's map alone (the reduction relies on integral counts; see
    :mod:`repro.kernels.batch_stats`).
    """
    if strided_indirect and not streaming:
        raise ValueError("strided_indirect requires streaming=True")
    spike_counts = np.asarray(spike_counts, dtype=np.float64)
    padded = spec.padded_input_shape
    if spike_counts.ndim != 3 or spike_counts.shape[1:] != (padded.height, padded.width):
        raise ValueError(
            f"spike_counts has shape {spike_counts.shape}, expected "
            f"(batch, {padded.height}, {padded.width})"
        )
    if (spike_counts < 0).any() or (np.floor(spike_counts) != spike_counts).any():
        raise ValueError("spike_counts must be non-negative integers")
    batch = spike_counts.shape[0]
    num_cores = num_active_cores or params.num_worker_cores
    output_shape = spec.output_shape
    simd = precision.simd_width
    groups = (spec.out_channels + simd - 1) // simd

    tcdm = Tcdm(params)
    conflict_factor = tcdm.conflict_stall_factor(num_cores)

    # ---- per-position SpVA costs for the whole batch ----------------------
    flat_counts = spike_counts.reshape(batch, -1)
    if streaming:
        per_element = (
            costs.strided_indirect_cycles_per_element if strided_indirect else None
        )
        position_cost = streaming_spva_cost(
            flat_counts, costs, conflict_factor=conflict_factor, cycles_per_element=per_element
        )
    else:
        position_cost = baseline_spva_cost(flat_counts, costs)

    def per_rf(values: np.ndarray) -> np.ndarray:
        return window_sum_batch(
            values.reshape(batch, padded.height, padded.width), spec.kernel_size, spec.stride
        ).reshape(batch, -1)

    rf_spva_cycles = per_rf(position_cost.cycles)
    rf_spva_int = per_rf(position_cost.int_instructions)
    rf_spva_fp = per_rf(position_cost.fp_instructions)
    rf_spva_fp_busy = per_rf(position_cost.fp_busy_cycles)
    rf_spva_spm = per_rf(position_cost.spm_accesses)
    rf_spva_ssr = per_rf(position_cost.ssr_spm_accesses)

    act_int, act_fp = activation_cost_per_group(precision, costs)
    group_fixed_cycles = costs.group_overhead_int_instrs + act_int + act_fp
    group_fixed_int = costs.group_overhead_int_instrs + act_int
    group_fixed_fp = act_fp

    rf_cycles = (
        costs.rf_overhead_int_instrs
        + groups * (rf_spva_cycles + group_fixed_cycles)
    )
    rf_int = costs.rf_overhead_int_instrs + groups * (rf_spva_int + group_fixed_int)
    rf_fp = groups * (rf_spva_fp + group_fixed_fp)
    rf_fp_busy = groups * (rf_spva_fp_busy + group_fixed_fp)
    rf_spm = groups * (rf_spva_spm + 4.0)  # membrane load/store + ofmap append
    rf_ssr = groups * rf_spva_ssr

    # ---- workload stealing, all frames in one call -----------------------
    schedule = workload_stealing_schedule_batch(
        rf_cycles, num_cores, atomic_cost_cycles=costs.atomic_operation_cycles
    )

    # ---- tiling/DMA plans of all frames and the per-core reductions ------
    nnz = flat_counts.sum(axis=1)
    compressed_bytes = (nnz * index_bytes + (padded.spatial_size + 1) * index_bytes).astype(
        np.int64
    )
    plan = plan_conv_tiles(
        input_shape=padded,
        output_shape=output_shape,
        kernel_size=spec.kernel_size,
        compressed_ifmap_bytes=compressed_bytes,
        precision=precision,
        index_bytes=index_bytes,
        params=params,
        costs=costs,
    )
    label = f"{spec.name}-{'spikestream' if streaming else 'baseline'}-{precision.value}"
    return cluster_stats_from_batch(
        (rf_int, rf_fp, rf_fp_busy, rf_spm, rf_ssr),
        schedule,
        costs,
        InstructionCache(params, costs),
        plan,
        label,
    )


def conv_layer_functional(
    spec: ConvLayerSpec,
    compressed_input: CompressedIfmap,
    weights: np.ndarray,
    membrane: Optional[np.ndarray] = None,
    precision: Precision = Precision.FP64,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, CompressedIfmap]:
    """Execute the compressed convolution functionally.

    Parameters
    ----------
    compressed_input:
        Compressed *padded* ifmap (shape must equal ``spec.padded_input_shape``).
    weights:
        Filter bank of shape ``(kh, kw, C_in, C_out)``.
    membrane:
        Previous membrane potentials of shape ``output_shape`` (zeros if
        omitted).

    Returns
    -------
    (input_currents, new_membrane, output_spikes, compressed_ofmap)
    """
    padded = spec.padded_input_shape
    if compressed_input.shape != padded:
        raise ValueError(
            f"compressed input has shape {compressed_input.shape}, expected padded shape {padded}"
        )
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != spec.weight_shape:
        raise ValueError(f"weights have shape {weights.shape}, expected {spec.weight_shape}")
    output_shape = spec.output_shape
    if membrane is None:
        membrane = np.zeros(output_shape.as_tuple(), dtype=np.float64)
    membrane = np.asarray(membrane, dtype=np.float64)
    if membrane.shape != output_shape.as_tuple():
        raise ValueError(
            f"membrane has shape {membrane.shape}, expected {output_shape.as_tuple()}"
        )

    currents = np.zeros(output_shape.as_tuple(), dtype=np.float64)
    for oy in range(output_shape.height):
        for ox in range(output_shape.width):
            accumulator = np.zeros(spec.out_channels, dtype=np.float64)
            for ky in range(spec.kernel_size):
                for kx in range(spec.kernel_size):
                    row = oy * spec.stride + ky
                    col = ox * spec.stride + kx
                    idcs = compressed_input.spatial_slice(row, col)
                    if len(idcs) == 0:
                        continue
                    accumulator += spva_gather_accumulate(weights[ky, kx], idcs)
            currents[oy, ox] = accumulator

    new_membrane, spikes = fused_lif_activation(membrane, currents, spec.lif, precision)

    builder = CompressedIfmapBuilder(shape=output_shape, index_bytes=compressed_input.index_bytes)
    for oy, ox, channel in zip(*np.nonzero(spikes)):
        builder.add_spike(int(oy), int(ox), int(channel))
    return currents, new_membrane, spikes, builder.finalize()
