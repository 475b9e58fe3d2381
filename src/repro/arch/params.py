"""Cluster geometry and cost-model coefficients.

:class:`ClusterParams` captures the structural parameters of the Snitch
cluster evaluated in the paper (GF 12LP+, 1 GHz, 0.8 V): eight RV32G worker
cores with SIMD FPUs, three stream registers each (two of which support
indirect streams), a 128 KiB 32-bank scratchpad, an 8 KiB shared instruction
cache and a 512-bit DMA engine driven by a ninth core.

:class:`CostModelParams` holds the per-operation cycle coefficients of the
behavioral timing model.  They are derived from the instruction listings in
the paper (Listing 1) and from the micro-architectural behaviour of Snitch
described in the SSR/sparse-SSR publications; each coefficient documents the
reasoning behind its default value.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClusterParams:
    """Structural parameters of the Snitch compute cluster."""

    num_worker_cores: int = 8
    clock_hz: float = 1.0e9
    spm_bytes: int = 128 * 1024
    spm_banks: int = 32
    spm_word_bytes: int = 8
    icache_bytes: int = 8 * 1024
    icache_line_bytes: int = 32
    dma_bus_bits: int = 512
    num_stream_registers: int = 3
    num_indirect_stream_registers: int = 2
    max_affine_dims: int = 4
    fpu_register_bits: int = 64
    supported_index_bits: tuple = (8, 16, 32)

    def __post_init__(self) -> None:
        if self.num_worker_cores <= 0:
            raise ValueError("num_worker_cores must be positive")
        if self.num_indirect_stream_registers > self.num_stream_registers:
            raise ValueError("indirect stream registers cannot exceed total stream registers")
        if self.spm_bytes % (self.spm_banks * self.spm_word_bytes) != 0:
            raise ValueError("SPM size must be divisible by banks * word size")


@dataclass(frozen=True)
class CostModelParams:
    """Cycle coefficients of the behavioral performance model.

    The coefficients are expressed per *element* (one gathered weight word),
    per *SpVA* (one sparse vector accumulation at a spatial position), per
    *channel group* (SIMD-width output channels sharing an accumulator) and
    per *receptive field* (one output spatial position).
    """

    # --- Baseline (non-streaming) SpVA inner loop, Listing 1b -------------
    baseline_spva_instrs_per_element: int = 8
    """Instructions per gathered element in the baseline loop: lw, slli, add,
    fld, addi, addi, fadd, bne."""

    baseline_spva_stall_cycles_per_element: float = 4.0
    """Pipeline stalls per element on the single-issue core: the load-use
    stall after the index load (2 cycles of TCDM latency) and the taken-branch
    penalty of ``bne`` (2 cycles); the FP load latency is hidden by the
    pointer/counter increments.  The value matches the instruction-level
    executor in :mod:`repro.isa.executor`, which measures 12 cycles per
    element for Listing 1b."""

    baseline_spva_fp_instrs_per_element: int = 1
    """Useful FP instructions per element in the baseline (the SIMD add)."""

    # --- Streaming (SSR + frep) SpVA inner loop, Listing 1c ---------------
    streaming_cycles_per_element: float = 1.50
    """Cycles per gathered element when the indirect SSR drives the loop.
    Each element needs one 64-bit weight access plus a 16-bit index fetch
    (four indices share one SPM word) through the core's TCDM ports, and the
    accumulating ``fadd`` chain inserts occasional dependency bubbles.  The
    value is calibrated so that long-stream FPU utilization saturates in the
    55-60 % band reported for the deep S-VGG11 layers in Figure 3b."""

    streaming_fp_instrs_per_element: int = 1
    """FP instructions per element with streaming (one frep-issued add)."""

    stream_setup_int_instrs: int = 5
    """Integer instructions to configure the indirect SSR and frep for one
    SpVA (base address, index pointer, bound, repetition count)."""

    stream_startup_cycles: float = 3.0
    """Non-hidden pipeline fill/drain cycles at each SpVA stream boundary."""

    strided_indirect_cycles_per_element: float = 1.15
    """Cycles per gathered element with the *strided indirect* SSR extension
    the paper lists as future work: the index array is fetched once and
    replayed with a stride across the SIMD output-channel groups, so later
    group passes only pay for the weight-word access.  Used when a kernel is
    invoked with ``strided_indirect=True``."""

    # --- Shared outer-loop costs (Listing 1a) ------------------------------
    spva_address_calc_int_instrs: int = 6
    """Integer instructions to compute the spatial coordinate, stream base
    address and stream length for one SpVA."""

    rf_overhead_int_instrs: int = 12
    """Per-receptive-field overhead: workload-stealing atomic fetch of
    ``next_rf``, membrane-potential load and pointer bookkeeping."""

    group_overhead_int_instrs: int = 4
    """Per-channel-group overhead inside a receptive field (accumulator
    initialization and weight base-address update)."""

    activation_int_instrs_per_group: int = 8
    """Integer instructions of the fused LIF activation per channel group:
    SIMD thresholding mask extraction, branches and atomic updates of the
    compressed ofmap buffers."""

    activation_fp_instrs_per_group: int = 3
    """FP instructions of the fused activation per channel group: membrane
    decay multiply, threshold compare and reset subtract."""

    output_unpack_extra_iterations_fp8: int = 2
    """Extra bit-unpacking iterations needed after thresholding when running
    FP8 (the paper attributes the gap between the measured 1.71x and the
    ideal 2x FP8 speedup to these iterations)."""

    # --- Dense spike-encoding first layer (Section III-F) ------------------
    dense_baseline_instrs_per_mac: float = 3.5
    """Issue slots per (SIMD) multiply-accumulate of the baseline dense
    matmul: two operand loads, the fmadd and amortized loop control (the
    hardware loop removes part of the branch overhead even without SSRs)."""

    dense_baseline_stall_cycles_per_mac: float = 0.25
    """Average stalls per MAC in the baseline dense loop."""

    dense_streaming_cycles_per_mac: float = 1.60
    """Cycles per (SIMD) MAC with two affine SSRs feeding the FPU; both
    operand streams share the core's TCDM bandwidth, so throughput settles
    just below one MAC every two cycles (the paper measures 53.1 % FPU
    utilization for the streamed first layer)."""

    dense_rf_overhead_int_instrs: int = 10
    """Per-output-position overhead of the dense matmul (pointer setup and
    activation handling)."""

    # --- Fully connected layers --------------------------------------------
    fc_setup_int_instrs: int = 8
    """Per-output-group setup of the FC kernel (single SpVA per group)."""

    # --- Memory-system effects ---------------------------------------------
    icache_miss_penalty_cycles: float = 18.0
    """Cycles to refill one instruction cache line from global memory."""

    icache_cold_miss_lines: int = 24
    """Instruction cache lines touched by a kernel (cold misses per tile)."""

    icache_capacity_miss_rate: float = 0.0015
    """Residual per-instruction miss probability during steady state,
    responsible for part of the gap to the ideal speedup."""

    dma_setup_cycles: float = 20.0
    """Cycles to program one DMA transfer descriptor."""

    dma_bytes_per_cycle: float = 64.0
    """Payload bytes moved per cycle by the 512-bit DMA engine."""

    atomic_operation_cycles: float = 4.0
    """Latency of one atomic tagging operation of the workload-stealing
    scheduler."""

    #: Instruction counts that enter the conv and FC kernels' per-item metrics.
    #: They must be whole numbers: the batched kernels sum those metrics in a
    #: different order than the scalar kernels, which is exact only for
    #: integer values (see :mod:`repro.kernels.batch_stats`).
    INTEGRAL_INSTRUCTION_COUNTS = (
        "baseline_spva_instrs_per_element",
        "baseline_spva_fp_instrs_per_element",
        "streaming_fp_instrs_per_element",
        "stream_setup_int_instrs",
        "spva_address_calc_int_instrs",
        "rf_overhead_int_instrs",
        "group_overhead_int_instrs",
        "activation_int_instrs_per_group",
        "activation_fp_instrs_per_group",
        "output_unpack_extra_iterations_fp8",
        "fc_setup_int_instrs",
    )

    def __post_init__(self) -> None:
        if self.streaming_cycles_per_element < 1.0:
            raise ValueError("streaming_cycles_per_element cannot be below 1 cycle")
        if self.baseline_spva_instrs_per_element < 1:
            raise ValueError("baseline_spva_instrs_per_element must be at least 1")
        for name in self.INTEGRAL_INSTRUCTION_COUNTS:
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"{name} must be a whole number of instructions, got {value}")

    @property
    def baseline_cycles_per_element(self) -> float:
        """Total baseline cycles per gathered element (instructions + stalls)."""
        return self.baseline_spva_instrs_per_element + self.baseline_spva_stall_cycles_per_element

    @property
    def dense_baseline_cycles_per_mac(self) -> float:
        """Total baseline cycles per dense SIMD MAC (instructions + stalls)."""
        return self.dense_baseline_instrs_per_mac + self.dense_baseline_stall_cycles_per_mac


DEFAULT_CLUSTER = ClusterParams()
"""The Snitch cluster configuration evaluated in the paper."""

DEFAULT_COSTS = CostModelParams()
"""Default cost-model coefficients."""
