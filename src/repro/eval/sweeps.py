"""Parameter sweeps and ablation studies.

These go beyond the paper's figures: they quantify the contribution of each
SpikeStream optimization and the sensitivity of the results to firing rate,
core count, precision and stream length — the design-choice ablations called
out in DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..arch.params import DEFAULT_CLUSTER, DEFAULT_COSTS, ClusterParams
from ..config import baseline_config, spikestream_config
from ..core.pipeline import SpikeStreamInference
from ..kernels.conv import ConvLayerSpec, conv_layer_perf, pad_counts
from ..kernels.scheduler import workload_stealing_schedule
from ..kernels.spva import baseline_spva_cost, streaming_spva_cost
from ..snn.svgg11 import SVGG11_LAYER_FIRING_RATES
from ..types import Precision, TensorShape
from .experiments import ExperimentResult
from .metrics import ratio


# Default point lists, shared by the sequential sweeps below and the
# parallel runner (repro.eval.runner) so the two entry points cannot drift.
DEFAULT_FIRING_RATES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
DEFAULT_CORE_COUNTS = (1, 2, 4, 8)
DEFAULT_PRECISIONS = (Precision.FP32, Precision.FP16, Precision.FP8)
DEFAULT_STREAM_LENGTHS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
DEFAULT_STRIDED_INDIRECT_RATES = (0.05, 0.1, 0.2, 0.4)


def conv6_spec() -> ConvLayerSpec:
    """The layer used by most sweeps (S-VGG11 conv6: 8x8x512 ifmap, 512 filters)."""
    return ConvLayerSpec(
        name="conv6",
        input_shape=TensorShape(8, 8, 512),
        in_channels=512,
        out_channels=512,
        kernel_size=3,
        stride=1,
        padding=1,
    )


def counts_for_rate(spec: ConvLayerSpec, rate: float, rng: np.random.Generator) -> np.ndarray:
    """A per-pixel spike-count map for ``spec``'s ifmap at firing rate ``rate``."""
    unpadded = spec.input_shape
    counts = rng.binomial(unpadded.channels, rate, size=(unpadded.height, unpadded.width))
    return pad_counts(spec, counts)


def firing_rate_point(
    rate: float,
    precision: Precision = Precision.FP16,
    rng: Optional[np.random.Generator] = None,
    seed: int = 2025,
) -> Dict[str, object]:
    """One firing-rate sweep point (baseline vs SpikeStream on conv6).

    Standalone entry point shared by :func:`firing_rate_sweep` (which passes
    its sequentially-advanced ``rng``) and the parallel runner in
    :mod:`repro.eval.runner` (which derives an independent ``seed`` per
    point so results do not depend on evaluation order).
    """
    spec = conv6_spec()
    rng = rng if rng is not None else np.random.default_rng(seed)
    counts = counts_for_rate(spec, rate, rng)
    base = conv_layer_perf(spec, counts, precision, streaming=False)
    stream = conv_layer_perf(spec, counts, precision, streaming=True)
    return {
        "firing_rate": rate,
        "baseline_cycles": base.total_cycles,
        "spikestream_cycles": stream.total_cycles,
        "speedup": ratio(base.total_cycles, stream.total_cycles),
        "spikestream_fpu_util": stream.fpu_utilization,
    }


def firing_rate_sweep(
    rates: Sequence[float] = DEFAULT_FIRING_RATES,
    precision: Precision = Precision.FP16,
    seed: int = 2025,
) -> ExperimentResult:
    """Speedup and utilization of conv6 as a function of the ifmap firing rate."""
    rng = np.random.default_rng(seed)
    rows = [firing_rate_point(rate, precision, rng=rng) for rate in rates]
    return ExperimentResult(
        name="firing_rate_sweep",
        figure="ablation",
        rows=rows,
        headline={"max_speedup": max(r["speedup"] for r in rows)},
    )


def core_count_point(
    cores: int,
    counts: np.ndarray,
    precision: Precision = Precision.FP16,
) -> Dict[str, object]:
    """One strong-scaling point: SpikeStream conv6 on ``cores`` worker cores."""
    spec = conv6_spec()
    params = ClusterParams(num_worker_cores=cores)
    stats = conv_layer_perf(spec, counts, precision, streaming=True, params=params,
                            num_active_cores=cores)
    return {
        "cores": cores,
        "cycles": stats.total_cycles,
        "fpu_util": stats.fpu_utilization,
    }


def core_count_sweep(
    core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
    precision: Precision = Precision.FP16,
    firing_rate: Optional[float] = None,
    seed: int = 2025,
) -> ExperimentResult:
    """Strong scaling of the SpikeStream conv kernel with the number of cores.

    Parallel efficiency is measured against an *explicit* single-core run of
    the same spike-count map: if ``core_counts`` does not include 1, the
    1-core reference is evaluated separately rather than extrapolated, so the
    efficiency column is meaningful for any core-count subset.
    """
    spec = conv6_spec()
    rate = firing_rate if firing_rate is not None else SVGG11_LAYER_FIRING_RATES["conv6"]
    rng = np.random.default_rng(seed)
    counts = counts_for_rate(spec, rate, rng)
    rows = [core_count_point(cores, counts, precision) for cores in core_counts]
    by_cores = {row["cores"]: row for row in rows}
    if 1 in by_cores:
        reference = by_cores[1]["cycles"]
    else:
        reference = core_count_point(1, counts, precision)["cycles"]
    for row in rows:
        row["parallel_efficiency"] = ratio(reference, row["cycles"] * row["cores"])
    return ExperimentResult(
        name="core_count_sweep",
        figure="ablation",
        rows=rows,
        headline={f"efficiency_at_{core_counts[-1]}_cores": rows[-1]["parallel_efficiency"]},
    )


def precision_point(
    precision: Precision, batch_size: int = 4, seed: int = 2025
) -> Dict[str, object]:
    """One precision sweep point: a full S-VGG11 statistical run."""
    config = spikestream_config(precision, batch_size=batch_size, seed=seed)
    result = SpikeStreamInference(config).run_statistical(batch_size=batch_size, seed=seed)
    return {
        "precision": precision.value,
        "simd_width": precision.simd_width,
        "runtime_ms": result.total_runtime_s * 1e3,
        "energy_mj": result.total_energy_j * 1e3,
        "fpu_util": result.network_fpu_utilization,
    }


def fp8_over_fp16_headline(rows: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """FP8-over-FP16 speedup looked up by precision value.

    Returns an empty headline when either precision is absent instead of
    silently reporting the ratio of whatever happens to occupy the last two
    rows (callers may pass a custom precision order or subset).
    """
    runtimes = {row["precision"]: row["runtime_ms"] for row in rows}
    if "fp16" not in runtimes or "fp8" not in runtimes:
        return {}
    return {"fp8_over_fp16_speedup": ratio(runtimes["fp16"], runtimes["fp8"])}


def precision_sweep(
    precisions: Sequence[Precision] = DEFAULT_PRECISIONS,
    batch_size: int = 4,
    seed: int = 2025,
) -> ExperimentResult:
    """End-to-end S-VGG11 runtime and energy across numeric precisions."""
    rows = [precision_point(precision, batch_size, seed) for precision in precisions]
    return ExperimentResult(
        name="precision_sweep",
        figure="ablation",
        rows=rows,
        headline=fp8_over_fp16_headline(rows),
    )


def stream_length_point(length: int) -> Dict[str, object]:
    """One per-SpVA stream-length point (deterministic; no randomness)."""
    base = baseline_spva_cost(float(length))
    stream = streaming_spva_cost(float(length))
    return {
        "stream_length": int(length),
        "baseline_cycles": float(base.cycles),
        "streaming_cycles": float(stream.cycles),
        "speedup": ratio(float(base.cycles), float(stream.cycles)),
    }


def stream_length_sweep(
    lengths: Sequence[int] = DEFAULT_STREAM_LENGTHS,
) -> ExperimentResult:
    """Per-SpVA speedup of streaming over the baseline as a function of stream length."""
    rows = [stream_length_point(length) for length in lengths]
    return ExperimentResult(
        name="stream_length_sweep",
        figure="ablation",
        rows=rows,
        headline={"asymptotic_speedup": rows[-1]["speedup"]},
    )


def strided_indirect_point(
    rate: float,
    precision: Precision = Precision.FP16,
    rng: Optional[np.random.Generator] = None,
    seed: int = 2025,
) -> Dict[str, object]:
    """One strided-indirect sweep point (standard vs strided-indirect conv6)."""
    spec = conv6_spec()
    rng = rng if rng is not None else np.random.default_rng(seed)
    counts = counts_for_rate(spec, rate, rng)
    standard = conv_layer_perf(spec, counts, precision, streaming=True)
    strided = conv_layer_perf(spec, counts, precision, streaming=True, strided_indirect=True)
    return {
        "firing_rate": rate,
        "spikestream_cycles": standard.total_cycles,
        "strided_indirect_cycles": strided.total_cycles,
        "additional_speedup": ratio(standard.total_cycles, strided.total_cycles),
        "spikestream_fpu_util": standard.fpu_utilization,
        "strided_indirect_fpu_util": strided.fpu_utilization,
    }


def strided_indirect_sweep(
    rates: Sequence[float] = DEFAULT_STRIDED_INDIRECT_RATES,
    precision: Precision = Precision.FP16,
    seed: int = 2025,
) -> ExperimentResult:
    """Projected benefit of the strided-indirect SSR extension (paper future work).

    Compares the standard SpikeStream conv kernel against a variant whose
    gather index array is replayed across SIMD channel groups, on conv6 over
    a range of firing rates.
    """
    rng = np.random.default_rng(seed)
    rows = [strided_indirect_point(rate, precision, rng=rng) for rate in rates]
    return ExperimentResult(
        name="strided_indirect_sweep",
        figure="ablation",
        rows=rows,
        headline={"max_additional_speedup": max(r["additional_speedup"] for r in rows)},
    )


#: Frame-batch sizes swept by the ``functional_batch`` sweep.
DEFAULT_FUNCTIONAL_BATCHES = (1, 2, 4, 8)


def functional_network(seed: int = 2025):
    """A small SVGG-style spiking network for fast functional sweep points.

    Same topology family as S-VGG11 (spike-encoding first conv, max-pooled
    conv stack, FC readout) on a 16x16 input, so a functional sweep point —
    which must run a real forward pass — stays a few milliseconds instead of
    the full network's seconds.  Deterministic in ``seed``.
    """
    from ..snn.layers import Flatten, SpikingConv2d, SpikingLinear, SpikingMaxPool2d
    from ..snn.network import SpikingNetwork
    from ..snn.neuron import LIFParameters

    lif = LIFParameters(alpha=0.9, v_threshold=0.25)
    layers = [
        SpikingConv2d(3, 8, kernel_size=3, padding=1, lif=lif,
                      encodes_input=True, name="conv1"),
        SpikingMaxPool2d(name="pool1"),
        SpikingConv2d(8, 16, kernel_size=3, padding=1, lif=lif, name="conv2"),
        SpikingMaxPool2d(name="pool2"),
        Flatten(name="flatten"),
        SpikingLinear(4 * 4 * 16, 10, lif=lif, name="fc1", is_output=True),
    ]
    network = SpikingNetwork(layers, input_shape=TensorShape(16, 16, 3), name="svgg-small")
    network.initialize(seed)
    return network


def functional_point(
    batch: int,
    precision: Precision = Precision.FP16,
    seed: int = 2025,
) -> Dict[str, object]:
    """One functional-mode run of the small SVGG network at a frame-batch size.

    Builds the deterministic network, records ``batch`` synthetic frames'
    real spike activity through the batched forward pass and costs it with
    the batched functional engine.  Deterministic in ``(batch, precision,
    seed)``, so the row is backend-invariant.
    """
    from ..snn.datasets import SyntheticCIFAR10

    network = functional_network(seed)
    frames, _ = SyntheticCIFAR10(
        seed=seed, image_shape=TensorShape(16, 16, 3)
    ).sample(batch)
    config = spikestream_config(precision, batch_size=batch, seed=seed)
    result = SpikeStreamInference(config).run_functional(network, frames)
    return {
        "frames": batch,
        "total_cycles": result.total_cycles,
        "total_energy_mj": result.total_energy_j * 1e3,
        "network_fpu_utilization": result.network_fpu_utilization,
    }


def optimization_ablation(batch_size: int = 4, seed: int = 2025) -> ExperimentResult:
    """Contribution of the main SpikeStream design choices.

    Compares four variants of the full S-VGG11 run:

    * the parallel SIMD baseline (TC+TP+DP+DB),
    * the baseline with *static* RF partitioning instead of workload stealing
      (isolates the scheduler's contribution on one layer),
    * SpikeStream (baseline + SA),
    * SpikeStream in FP8 (adds narrower SIMD lanes).
    """
    rows: List[Dict[str, object]] = []
    base_cfg = baseline_config(Precision.FP16, batch_size=batch_size, seed=seed)
    stream_cfg = spikestream_config(Precision.FP16, batch_size=batch_size, seed=seed)
    fp8_cfg = spikestream_config(Precision.FP8, batch_size=batch_size, seed=seed)

    base = SpikeStreamInference(base_cfg).run_statistical(batch_size=batch_size, seed=seed)
    stream = SpikeStreamInference(stream_cfg).run_statistical(batch_size=batch_size, seed=seed)
    fp8 = SpikeStreamInference(fp8_cfg).run_statistical(batch_size=batch_size, seed=seed)

    for label, result in (
        ("baseline FP16 (TC+TP+DP+DB)", base),
        ("SpikeStream FP16 (+SA)", stream),
        ("SpikeStream FP8 (+narrow SIMD)", fp8),
    ):
        rows.append(
            {
                "variant": label,
                "runtime_ms": result.total_runtime_s * 1e3,
                "energy_mj": result.total_energy_j * 1e3,
                "fpu_util": result.network_fpu_utilization,
                "speedup_vs_baseline": ratio(base.total_cycles, result.total_cycles),
            }
        )

    # Workload stealing vs static partitioning on the most imbalanced layer.
    spec = conv6_spec()
    rng = np.random.default_rng(seed)
    counts = counts_for_rate(spec, SVGG11_LAYER_FIRING_RATES["conv6"], rng)
    from ..kernels.conv import window_sum  # local import to avoid cycle at module load

    rf_costs = window_sum(counts, spec.kernel_size, spec.stride).reshape(-1)
    stealing = workload_stealing_schedule(rf_costs, DEFAULT_CLUSTER.num_worker_cores,
                                          DEFAULT_COSTS.atomic_operation_cycles)
    static = workload_stealing_schedule(rf_costs, DEFAULT_CLUSTER.num_worker_cores,
                                        0.0, static=True)
    rows.append(
        {
            "variant": "workload stealing vs static partition (conv6 RF imbalance)",
            "runtime_ms": float("nan"),
            "energy_mj": float("nan"),
            "fpu_util": float("nan"),
            "speedup_vs_baseline": ratio(static.makespan, stealing.makespan),
        }
    )
    return ExperimentResult(
        name="optimization_ablation",
        figure="ablation",
        rows=rows,
        headline={
            "sa_speedup": ratio(base.total_cycles, stream.total_cycles),
            "fp8_speedup": ratio(base.total_cycles, fp8.total_cycles),
            "stealing_gain": rows[-1]["speedup_vs_baseline"],
        },
    )
