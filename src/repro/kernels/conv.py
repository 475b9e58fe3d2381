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

from dataclasses import dataclass, field, fields as dataclass_fields
from functools import lru_cache
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
from .batch_stats import COSTER_CACHE_SIZE, LayerTail, core_sums, layer_label
from .scheduler import workload_stealing_schedule, workload_stealing_schedule_batch
from .spva import SpvaCost, spva_cost, spva_gather_accumulate
from .tiling import conv_tile_layout, plan_conv_tiles


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
    counts = np.asarray(counts)
    if counts.ndim < 2:
        raise ValueError(f"counts must have at least 2 spatial axes, got shape {counts.shape}")
    if not spec.padding:
        return np.asarray(counts, dtype=np.float64)
    pad = spec.padding
    *lead, height, width = counts.shape
    padded = np.zeros((*lead, height + 2 * pad, width + 2 * pad), dtype=np.float64)
    padded[..., pad:pad + height, pad:pad + width] = counts
    return padded


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


def _position_spva_cost(
    counts: np.ndarray,
    costs: CostModelParams,
    streaming: bool,
    strided_indirect: bool,
    conflict_factor: float,
) -> SpvaCost:
    """SpVA cost of every spatial position with the given spike counts."""
    per_element = costs.strided_indirect_cycles_per_element if strided_indirect else None
    return spva_cost(counts, costs, streaming, conflict_factor, per_element)


def _rf_constants(
    groups: int, precision: Precision, costs: CostModelParams
) -> Tuple[np.ndarray, np.ndarray]:
    """The per-RF constants of the six metric rows, as ``(fixed, offset)``.

    RF row ``m`` (cycles, then the metrics in ``METRIC_ROWS`` order) is
    ``offset[m] + groups * (rf_spva[m] + fixed[m])``, where ``rf_spva[m]`` is
    :class:`SpvaCost` field ``m`` summed over the RF's window: every channel
    group pays its SpVAs, its overhead and the fused activation, and every
    RF its own overhead.  A zero entry leaves its row exact, since every
    row is non-negative.
    """
    act_int, act_fp = activation_cost_per_group(precision, costs)
    group_int = costs.group_overhead_int_instrs + act_int
    fixed = np.array([group_int + act_fp, group_int, act_fp, act_fp, 4.0, 0.0])
    # The 4.0 is the membrane load/store plus the ofmap append.
    rf_overhead = float(costs.rf_overhead_int_instrs)
    offset = np.array([rf_overhead, rf_overhead, 0.0, 0.0, 0.0, 0.0])
    return fixed, offset


def _check_counts(spec: ConvLayerSpec, spike_counts: np.ndarray, integral: bool) -> None:
    """Reject counts outside ``0..in_channels`` (and, if ``integral``, non-integers)."""
    if integral and ((spike_counts < 0).any() or (np.floor(spike_counts) != spike_counts).any()):
        raise ValueError("spike_counts must be non-negative integers")
    if (spike_counts > spec.in_channels).any():
        raise ValueError(
            f"spike_counts must not exceed in_channels ({spec.in_channels}) at any position"
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
        ``(Hp, Wp)`` (e.g. ``CompressedIfmap.spike_counts()``), each at
        most ``in_channels``.
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
    _check_counts(spec, spike_counts, integral=False)
    num_cores = num_active_cores or params.num_worker_cores
    output_shape = spec.output_shape
    simd = precision.simd_width
    groups = (spec.out_channels + simd - 1) // simd

    tcdm = Tcdm(params)
    conflict_factor = tcdm.conflict_stall_factor(num_cores)

    # ---- per-position SpVA costs, then per-RF window aggregation ---------
    position_cost = _position_spva_cost(
        spike_counts.reshape(-1), costs, streaming, strided_indirect, conflict_factor
    )
    fixed, offset = _rf_constants(groups, precision, costs)
    rf_spva = np.stack([
        window_sum(
            getattr(position_cost, metric.name).reshape(padded.height, padded.width),
            spec.kernel_size,
            spec.stride,
        ).reshape(-1)
        for metric in dataclass_fields(SpvaCost)
    ])
    rf_cycles, rf_int, rf_fp, rf_fp_busy, rf_spm, rf_ssr = (
        offset[:, None] + groups * (rf_spva + fixed[:, None])
    )

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
    return ClusterStats(
        core_stats=core_stats,
        dma_cycles=dma_cycles,
        dma_bytes=float(plan.total_dma_bytes),
        dma_exposed_cycles=dma_exposed,
        total_cycles=compute_cycles + dma_exposed,
        label=layer_label(spec.name, streaming, precision),
    )


@dataclass(frozen=True)
class _ConvCoster:
    """The frame-independent costing state of one conv layer configuration.

    ``spva`` is the read-only ``(6, in_channels + 1)`` per-count table of
    the SpVA cost of one position: one row per :class:`SpvaCost` field, in
    order, one column per spike count ``0..in_channels``.  ``fixed`` and
    ``offset`` are :func:`_rf_constants` as ``(6, 1, 1)`` columns, the
    integer-instruction offset counting each RF's atomic claim, and
    ``ifmap_index_bytes`` the compressed ifmap's bytes beyond its spike
    indices (the per-position offsets).
    """

    spva: np.ndarray
    kernel_size: int
    stride: int
    groups: int
    fixed: np.ndarray
    offset: np.ndarray
    num_cores: int
    index_bytes: int
    ifmap_index_bytes: int
    tail: LayerTail

    def stats(self, counts: np.ndarray, label: str) -> BatchClusterStats:
        """Cost the ``(B, Hp, Wp)`` integer count stack (each in
        ``0..in_channels``) as :func:`conv_layer_perf` costs each frame."""
        rows = self.rf_spva(counts)
        rows += self.fixed
        rows *= self.groups
        rows += self.offset
        schedule = workload_stealing_schedule_batch(
            rows[0], self.num_cores, atomic_cost_cycles=self.tail.atomic_operation_cycles
        )
        nnz = counts.reshape(len(counts), -1).sum(axis=1)
        return self.tail.stats(
            core_sums(rows[1:], schedule),
            schedule,
            nnz * self.index_bytes + self.ifmap_index_bytes,
            label,
        )

    def rf_spva(self, counts: np.ndarray) -> np.ndarray:
        """The six SpVA metrics summed over every RF, ``(6, B, RFs)``.

        The metric maps of up to :data:`_WINDOW_CHUNK_BYTES` worth of frames
        are stacked as ``(6 * frames, Hp, Wp)`` and summed in one
        :func:`window_sum_batch` call, each map exactly as on its own.
        """
        batch, height, width = counts.shape
        step = max(1, _WINDOW_CHUNK_BYTES // (len(self.spva) * height * width * 8))
        if batch <= step:
            return self._window_sums(counts)
        return np.concatenate(
            [self._window_sums(counts[start:start + step]) for start in range(0, batch, step)],
            axis=1,
        )

    def _window_sums(self, counts: np.ndarray) -> np.ndarray:
        frames, height, width = counts.shape
        maps = np.take(self.spva, counts, axis=1).reshape(-1, height, width)
        sums = window_sum_batch(maps, self.kernel_size, self.stride)
        return sums.reshape(len(self.spva), frames, sums.shape[1] * sums.shape[2])


#: Byte budget of the stacked metric maps summed by one window_sum_batch
#: call.  It bounds the temporaries of a large batch (at batch 128 conv2's
#: unchunked stack and integral images take about 10 MB) the way
#: ``_IM2ROW_CHUNK_BYTES`` bounds im2row; on a 2-CPU Xeon host budgets from
#: 256 KiB up to an unchunked stack cost S-VGG11 batch 128 within 10% of
#: each other.
_WINDOW_CHUNK_BYTES = 512 * 1024


@lru_cache(maxsize=COSTER_CACHE_SIZE)
def _conv_coster(
    geometry: Tuple[TensorShape, int, int, int, int, int],
    precision: Precision,
    streaming: bool,
    strided_indirect: bool,
    num_cores: int,
    index_bytes: int,
    params: ClusterParams,
    costs: CostModelParams,
) -> _ConvCoster:
    """Build the :class:`_ConvCoster` of one configuration (memoised)."""
    spec = ConvLayerSpec("", *geometry)
    conflict_factor = Tcdm(params).conflict_stall_factor(num_cores)
    per_count = _position_spva_cost(
        np.arange(spec.in_channels + 1, dtype=np.float64),
        costs,
        streaming,
        strided_indirect,
        conflict_factor,
    )
    table = np.stack([getattr(per_count, metric.name) for metric in dataclass_fields(SpvaCost)])
    table.setflags(write=False)
    groups = (spec.out_channels + precision.simd_width - 1) // precision.simd_width
    fixed, offset = _rf_constants(groups, precision, costs)
    offset[1] += 1.0  # each RF's claim is one atomic integer instruction
    for constants in (fixed, offset):
        constants.setflags(write=False)
    padded = spec.padded_input_shape
    ifmap_index_bytes = (padded.spatial_size + 1) * index_bytes
    return _ConvCoster(
        spva=table,
        kernel_size=spec.kernel_size,
        stride=spec.stride,
        groups=groups,
        fixed=fixed.reshape(-1, 1, 1),
        offset=offset.reshape(-1, 1, 1),
        num_cores=num_cores,
        index_bytes=index_bytes,
        ifmap_index_bytes=ifmap_index_bytes,
        tail=LayerTail.compile(
            conv_tile_layout(
                padded, spec.output_shape, spec.kernel_size, precision, index_bytes, params
            ),
            padded.numel * index_bytes + ifmap_index_bytes,
            InstructionCache(params, costs),
            costs,
        ),
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
    spike-count map per frame, every count an integer in
    ``0..in_channels``.  Everything that depends only on the layer and the
    hardware model is compiled once per configuration (:func:`_conv_coster`,
    memoised by value): a call reads the six per-position SpVA metrics from
    the per-count table with :func:`numpy.take`, sums them over the RF
    windows in chunked :func:`window_sum_batch` calls, adds the per-RF
    constants in place, schedules all frames in one
    :func:`~repro.kernels.scheduler.workload_stealing_schedule_batch` call,
    sums each core's metrics and completes the counters from the compiled
    :class:`~repro.kernels.batch_stats.LayerTail`.  Frame ``i`` of the
    returned :class:`~repro.arch.trace.BatchClusterStats` is bit-for-bit
    identical to calling :func:`conv_layer_perf` on that frame's map alone
    (the reduction relies on integral counts; see
    :mod:`repro.kernels.batch_stats`).
    """
    if strided_indirect and not streaming:
        raise ValueError("strided_indirect requires streaming=True")
    spike_counts = np.asarray(spike_counts, dtype=np.float64)
    pad = 2 * spec.padding
    padded = (spec.input_shape.height + pad, spec.input_shape.width + pad)
    if spike_counts.ndim != 3 or spike_counts.shape[1:] != padded:
        raise ValueError(
            f"spike_counts has shape {spike_counts.shape}, expected (batch, {padded[0]}, "
            f"{padded[1]})"
        )
    # min/max reject NaN, infinities and counts out of range; the
    # comparison then rejects fractions, which the cast truncated.
    if spike_counts.size and not 0 <= spike_counts.min() <= spike_counts.max() <= spec.in_channels:
        _check_counts(spec, spike_counts, integral=True)
    counts = spike_counts.astype(np.intp)
    if (counts != spike_counts).any():
        _check_counts(spec, spike_counts, integral=True)
    coster = _conv_coster(
        (spec.input_shape, spec.in_channels, spec.out_channels, spec.kernel_size,
         spec.stride, spec.padding),
        precision, streaming, strided_indirect,
        num_active_cores or params.num_worker_cores, index_bytes, params, costs,
    )
    return coster.stats(counts, layer_label(spec.name, streaming, precision))


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
