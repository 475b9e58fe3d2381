"""Dense spike-encoding first layer (Section III-F).

When the input is an RGB image rather than an event stream, the first
convolutional layer performs the spike encoding: pixel intensities are the
input currents.  SpikeStream keeps this tensor dense in HWC layout, reshapes
it on the fly with a 2-D DMA im2row transfer and turns the convolution into a
matrix multiplication parallelized across output channels.  The streamed
variant feeds the FPU with two affine stream registers (one for the input
currents, one for the weights).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..arch.icache import InstructionCache
from ..arch.params import ClusterParams, CostModelParams, DEFAULT_CLUSTER, DEFAULT_COSTS
from ..arch.trace import BatchClusterStats, ClusterStats, CoreStats
from ..formats.csr_fiber import CompressedIfmapBuilder
from ..formats.csr_fiber import CompressedIfmap
from ..snn.neuron import LIFParameters
from ..snn.reference import conv2d_hwc
from ..types import Precision, TensorShape
from .activation import activation_cost_per_group, fused_lif_activation
from .scheduler import workload_stealing_schedule_batch


@dataclass
class EncodeLayerSpec:
    """Static description of the dense spike-encoding convolutional layer."""

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

    @property
    def output_shape(self) -> TensorShape:
        """Shape of the emitted spike map."""
        out_h = (self.input_shape.height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (self.input_shape.width + 2 * self.padding - self.kernel_size) // self.stride + 1
        return TensorShape(out_h, out_w, self.out_channels)

    @property
    def macs_per_output_position_per_group(self) -> int:
        """SIMD multiply-accumulates per output position and channel group."""
        return self.kernel_size * self.kernel_size * self.in_channels

    def weight_bytes(self, precision: Precision) -> int:
        """Bytes of the weight tensor."""
        return (
            self.kernel_size * self.kernel_size * self.in_channels * self.out_channels
        ) * precision.bytes


def encode_layer_perf(
    spec: EncodeLayerSpec,
    precision: Precision,
    streaming: bool,
    params: ClusterParams = DEFAULT_CLUSTER,
    costs: CostModelParams = DEFAULT_COSTS,
    index_bytes: int = 2,
    num_active_cores: Optional[int] = None,
    input_precision: Precision = Precision.FP16,
) -> ClusterStats:
    """Cycle-accounting model of the dense im2row + matmul encoding layer."""
    num_cores = num_active_cores or params.num_worker_cores
    output_shape = spec.output_shape
    simd = precision.simd_width
    groups = (spec.out_channels + simd - 1) // simd
    macs = spec.macs_per_output_position_per_group

    act_int, act_fp = activation_cost_per_group(precision, costs)
    if streaming:
        mac_cycles = macs * costs.dense_streaming_cycles_per_mac
        # The affine streams are programmed once per output position; the
        # integer core's work is fully hidden for these long dense streams.
        rf_group_cycles = max(mac_cycles, costs.dense_rf_overhead_int_instrs) + act_int + act_fp
        rf_group_int = costs.dense_rf_overhead_int_instrs + act_int
    else:
        mac_cycles = macs * costs.dense_baseline_cycles_per_mac
        rf_group_cycles = mac_cycles + costs.dense_rf_overhead_int_instrs + act_int + act_fp
        rf_group_int = (
            macs * (costs.dense_baseline_instrs_per_mac - 1)
            + costs.dense_rf_overhead_int_instrs
            + act_int
        )
    rf_group_fp = macs + act_fp

    rf_cycles = np.full(output_shape.spatial_size, groups * rf_group_cycles + costs.rf_overhead_int_instrs)
    rf_int = np.full(output_shape.spatial_size, groups * rf_group_int + costs.rf_overhead_int_instrs)
    rf_fp = np.full(output_shape.spatial_size, float(groups * rf_group_fp))
    rf_spm = np.full(output_shape.spatial_size, float(groups * (2.0 * macs + 4.0)))

    # Every RF costs the same: the batch scheduler deals them round-robin in
    # closed form instead of simulating 1,024 heap claims.
    schedule = workload_stealing_schedule_batch(
        rf_cycles[None, :], num_cores, atomic_cost_cycles=costs.atomic_operation_cycles
    )

    # DMA: the dense input is reshaped on the fly by a 2-D im2row transfer
    # (one strided row per output position), weights stream in once, and the
    # compressed ofmap goes back out.
    im2row_bytes = output_shape.spatial_size * macs * input_precision.bytes
    weight_bytes = spec.weight_bytes(precision)
    ofmap_bytes = output_shape.numel * index_bytes // 2
    dma_bytes = im2row_bytes + weight_bytes + ofmap_bytes
    dma_cycles = dma_bytes / costs.dma_bytes_per_cycle + (
        output_shape.spatial_size + 2
    ) * costs.dma_setup_cycles

    # A core's sums depend only on how many of the identical RFs it claimed:
    # summing the first ``claims`` entries adds the same operands in the same
    # (pairwise) order as summing the core's own.
    icache = InstructionCache(params, costs)
    core_stats = []
    for core_id in range(num_cores):
        busy = float(schedule.core_busy_cycles[0, core_id])
        atomics = float(schedule.atomic_operations_per_core[0, core_id])
        claims = int(atomics)
        int_instrs = float(np.sum(rf_int[:claims])) + atomics
        fp_instrs = float(np.sum(rf_fp[:claims]))
        spm = float(np.sum(rf_spm[:claims]))
        icache_stall = icache.miss_cycles(int_instrs + fp_instrs, tiles=1)
        total = busy + atomics * costs.atomic_operation_cycles + icache_stall
        core_stats.append(
            CoreStats(
                core_id=core_id,
                int_instructions=int_instrs,
                fp_instructions=fp_instrs,
                total_cycles=total,
                fpu_busy_cycles=fp_instrs,
                stall_cycles=max(0.0, total - int_instrs - fp_instrs),
                spm_accesses=spm,
                ssr_spm_accesses=spm if streaming else 0.0,
                atomic_operations=atomics,
            )
        )

    compute_cycles = max(s.total_cycles for s in core_stats)
    dma_exposed = max(0.0, dma_cycles - compute_cycles)
    label = f"{spec.name}-{'spikestream' if streaming else 'baseline'}-{precision.value}"
    return ClusterStats(
        core_stats=core_stats,
        dma_cycles=dma_cycles,
        dma_bytes=float(dma_bytes),
        dma_exposed_cycles=dma_exposed,
        total_cycles=compute_cycles + dma_exposed,
        label=label,
    )


def encode_layer_perf_batch(
    spec: EncodeLayerSpec,
    batch_size: int,
    precision: Precision,
    streaming: bool,
    params: ClusterParams = DEFAULT_CLUSTER,
    costs: CostModelParams = DEFAULT_COSTS,
    index_bytes: int = 2,
    num_active_cores: Optional[int] = None,
    input_precision: Precision = Precision.FP16,
) -> BatchClusterStats:
    """Batch-axis entry point of :func:`encode_layer_perf`.

    The dense encoding layer's cost model does not depend on the frame
    content, so the model is evaluated once and its one row broadcast to
    ``batch_size`` frames (read-only, so no frame can alias another).  Frame
    ``i`` of the returned :class:`~repro.arch.trace.BatchClusterStats` is
    bit-for-bit identical to a per-frame :func:`encode_layer_perf` call.
    """
    if batch_size < 0:
        raise ValueError(f"batch_size must be non-negative, got {batch_size}")
    reference = encode_layer_perf(
        spec,
        precision=precision,
        streaming=streaming,
        params=params,
        costs=costs,
        index_bytes=index_bytes,
        num_active_cores=num_active_cores,
        input_precision=input_precision,
    )
    return BatchClusterStats.repeat(reference, batch_size)


def encode_layer_functional(
    spec: EncodeLayerSpec,
    image: np.ndarray,
    weights: np.ndarray,
    membrane: Optional[np.ndarray] = None,
    precision: Precision = Precision.FP64,
    index_bytes: int = 2,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, CompressedIfmap]:
    """Execute the encoding layer functionally.

    Returns ``(input_currents, new_membrane, output_spikes, compressed_ofmap)``.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.shape != spec.input_shape.as_tuple():
        raise ValueError(
            f"image has shape {image.shape}, expected {spec.input_shape.as_tuple()}"
        )
    weights = np.asarray(weights, dtype=np.float64)
    expected_weights = (spec.kernel_size, spec.kernel_size, spec.in_channels, spec.out_channels)
    if weights.shape != expected_weights:
        raise ValueError(f"weights have shape {weights.shape}, expected {expected_weights}")
    output_shape = spec.output_shape
    if membrane is None:
        membrane = np.zeros(output_shape.as_tuple(), dtype=np.float64)

    currents = conv2d_hwc(image, weights, stride=spec.stride, padding=spec.padding)
    new_membrane, spikes = fused_lif_activation(membrane, currents, spec.lif, precision)

    builder = CompressedIfmapBuilder(shape=output_shape, index_bytes=index_bytes)
    for oy, ox, channel in zip(*np.nonzero(spikes)):
        builder.add_spike(int(oy), int(ox), int(channel))
    return currents, new_membrane, spikes, builder.finalize()
