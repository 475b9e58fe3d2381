"""Experiment drivers for every figure in the paper's evaluation section.

Each function regenerates the data series behind one figure:

* :func:`memory_footprint_experiment`        — Figure 3a
* :func:`utilization_experiment`             — Figure 3b
* :func:`speedup_experiment`                 — Figure 3c
* :func:`energy_experiment`                  — Figure 4
* :func:`accelerator_comparison_experiment`  — Figure 5a / 5b
* :func:`spva_microbenchmark_experiment`     — Listing 1 instruction-mix micro-benchmark

The drivers return an :class:`ExperimentResult` whose ``rows`` can be printed
with :func:`repro.eval.reporting.format_table` and whose ``headline`` summary
carries the aggregate numbers quoted in the paper's text (average speedups,
utilization, energy-efficiency gains, ...).

Figures 3b, 3c and 4 are computed from the three evaluated S-VGG11 variant
runs, passed in as the ``variants`` dictionary that
:meth:`repro.session.Session.run_variants` returns (keyed as
:func:`svgg11_variant_configs`), so the figures share one set of
store-backed simulations.  :meth:`repro.session.Session.run` runs any of
these drivers by its scenario name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..accelerators.comparison import compare_accelerators
from ..config import RunConfig, baseline_config, spikestream_config
from ..core.results import InferenceResult
from ..formats.footprint import aer_footprint_bytes, csr_footprint_bytes
from ..isa.spva_listings import make_spva_setup, run_baseline_spva, run_streaming_spva
from ..snn.svgg11 import svgg11_layer_shapes
from ..types import Precision
from ..utils.rng import spawn_rngs
from .metrics import ratio


@dataclass
class ExperimentResult:
    """Rows (one per layer / system / sweep point) plus headline aggregates."""

    name: str
    figure: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    headline: Dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Figure 3a: ifmap memory footprint (AER vs CSR) and firing activity
# --------------------------------------------------------------------------- #
def memory_footprint_experiment(
    batch_size: int = 128, seed: int = 2025, index_bytes: int = 2
) -> ExperimentResult:
    """Average ifmap footprint per conv layer under AER and the CSR format."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    descriptions = [d for d in svgg11_layer_shapes() if d["kind"] == "conv"]
    rows: List[Dict[str, object]] = []
    reductions: List[float] = []
    rngs = spawn_rngs(seed, batch_size)
    for description in descriptions:
        shape = description["padded_input_shape"]
        unpadded = description["input_shape"]
        rate = description["firing_rate"]
        csr_samples, aer_samples, nnz_samples = [], [], []
        for rng in rngs:
            # Spikes only occur inside the unpadded region; the padding ring
            # contributes pointer entries but no index entries.
            nnz = int(rng.binomial(unpadded.numel, rate))
            nnz_samples.append(nnz)
            csr_samples.append(csr_footprint_bytes(shape, nnz, index_bytes=index_bytes))
            aer_samples.append(aer_footprint_bytes(nnz, index_bytes=index_bytes))
        csr_mean, aer_mean = float(np.mean(csr_samples)), float(np.mean(aer_samples))
        reduction = ratio(aer_mean, csr_mean)
        if description["name"] != "conv1":
            # The first layer's input is the dense RGB image and is not
            # stored in either spike format; exclude it from the average as
            # the paper's figure effectively does.
            reductions.append(reduction)
        rows.append(
            {
                "layer": description["name"],
                "ifmap_shape": str(shape),
                "firing_rate_mean": float(np.mean(nnz_samples)) / unpadded.numel,
                "firing_rate_std": float(np.std(nnz_samples)) / unpadded.numel,
                "aer_bytes_mean": aer_mean,
                "aer_bytes_std": float(np.std(aer_samples)),
                "csr_bytes_mean": csr_mean,
                "csr_bytes_std": float(np.std(csr_samples)),
                "reduction": reduction,
            }
        )
    return ExperimentResult(
        name="memory_footprint",
        figure="fig3a",
        rows=rows,
        headline={"mean_csr_over_aer_reduction": float(np.mean(reductions))},
    )


# --------------------------------------------------------------------------- #
# Shared S-VGG11 runs
# --------------------------------------------------------------------------- #
def svgg11_variant_configs(
    batch_size: int = 16, seed: int = 2025, timesteps: int = 1
) -> Dict[str, RunConfig]:
    """Configurations of the three evaluated variants, keyed by variant name."""
    return {
        "baseline_fp16": baseline_config(Precision.FP16, batch_size=batch_size, seed=seed,
                                         timesteps=timesteps),
        "spikestream_fp16": spikestream_config(Precision.FP16, batch_size=batch_size, seed=seed,
                                               timesteps=timesteps),
        "spikestream_fp8": spikestream_config(Precision.FP8, batch_size=batch_size, seed=seed,
                                              timesteps=timesteps),
    }


# --------------------------------------------------------------------------- #
# Figure 3b: FPU utilization and IPC per layer (baseline vs SpikeStream, FP16)
# --------------------------------------------------------------------------- #
def utilization_experiment(variants: Dict[str, InferenceResult]) -> ExperimentResult:
    """Per-layer FPU utilization and per-core IPC for both FP16 code variants."""
    baseline, spikestream = variants["baseline_fp16"], variants["spikestream_fp16"]
    rows = []
    for base_layer, stream_layer in zip(baseline.layers, spikestream.layers):
        rows.append(
            {
                "layer": base_layer.name,
                "fpu_util_baseline": base_layer.mean_fpu_utilization,
                "fpu_util_spikestream": stream_layer.mean_fpu_utilization,
                "fpu_util_std_spikestream": stream_layer.std_fpu_utilization,
                "ipc_baseline": base_layer.mean_ipc,
                "ipc_spikestream": stream_layer.mean_ipc,
            }
        )
    headline = {
        "network_fpu_util_baseline": baseline.network_fpu_utilization,
        "network_fpu_util_spikestream": spikestream.network_fpu_utilization,
        "encode_fpu_util_baseline": baseline.layers[0].mean_fpu_utilization,
        "encode_fpu_util_spikestream": spikestream.layers[0].mean_fpu_utilization,
        "mean_conv_util_gain": float(
            np.mean(
                [
                    ratio(s.mean_fpu_utilization, b.mean_fpu_utilization)
                    for b, s in zip(baseline.conv_layers[1:], spikestream.conv_layers[1:])
                ]
            )
        ),
    }
    return ExperimentResult(name="utilization", figure="fig3b", rows=rows, headline=headline)


# --------------------------------------------------------------------------- #
# Figure 3c: per-layer speedups
# --------------------------------------------------------------------------- #
def speedup_experiment(variants: Dict[str, InferenceResult]) -> ExperimentResult:
    """SpikeStream FP16 over baseline FP16 and SpikeStream FP8 over FP16, per layer."""
    baseline = variants["baseline_fp16"]
    stream16 = variants["spikestream_fp16"]
    stream8 = variants["spikestream_fp8"]
    rows = []
    for base_layer, s16_layer, s8_layer in zip(baseline.layers, stream16.layers, stream8.layers):
        rows.append(
            {
                "layer": base_layer.name,
                "speedup_fp16_over_baseline": ratio(base_layer.mean_cycles, s16_layer.mean_cycles),
                "speedup_fp8_over_fp16": ratio(s16_layer.mean_cycles, s8_layer.mean_cycles),
                "speedup_fp8_over_baseline": ratio(base_layer.mean_cycles, s8_layer.mean_cycles),
            }
        )
    headline = {
        "network_speedup_fp16_over_baseline": ratio(baseline.total_cycles, stream16.total_cycles),
        "network_speedup_fp8_over_fp16": ratio(stream16.total_cycles, stream8.total_cycles),
        "network_speedup_fp8_over_baseline": ratio(baseline.total_cycles, stream8.total_cycles),
        "mean_layer_speedup_fp16_over_baseline": float(
            np.mean([row["speedup_fp16_over_baseline"] for row in rows])
        ),
        "peak_layer_speedup_fp16_over_baseline": float(
            np.max([row["speedup_fp16_over_baseline"] for row in rows])
        ),
    }
    return ExperimentResult(name="speedup", figure="fig3c", rows=rows, headline=headline)


# --------------------------------------------------------------------------- #
# Figure 4: per-layer energy and power
# --------------------------------------------------------------------------- #
def energy_experiment(variants: Dict[str, InferenceResult]) -> ExperimentResult:
    """Per-layer energy and power for baseline FP16, SpikeStream FP16 and FP8."""
    baseline = variants["baseline_fp16"]
    stream16 = variants["spikestream_fp16"]
    stream8 = variants["spikestream_fp8"]
    rows = []
    for base_layer, s16_layer, s8_layer in zip(baseline.layers, stream16.layers, stream8.layers):
        rows.append(
            {
                "layer": base_layer.name,
                "energy_mj_baseline": base_layer.mean_energy_j * 1e3,
                "energy_mj_spikestream_fp16": s16_layer.mean_energy_j * 1e3,
                "energy_mj_spikestream_fp8": s8_layer.mean_energy_j * 1e3,
                "power_w_baseline": base_layer.mean_power_w,
                "power_w_spikestream_fp16": s16_layer.mean_power_w,
                "power_w_spikestream_fp8": s8_layer.mean_power_w,
            }
        )
    conv_rows = [r for r in rows if r["layer"].startswith("conv") and r["layer"] != "conv1"]
    conv_energy = sum(
        r["energy_mj_baseline"] for r in rows if r["layer"].startswith("conv")
    )
    total_energy_base = sum(r["energy_mj_baseline"] for r in rows)
    headline = {
        "mean_power_baseline_conv2_to_8": float(np.mean([r["power_w_baseline"] for r in conv_rows])),
        "mean_power_spikestream_fp16_conv2_to_8": float(
            np.mean([r["power_w_spikestream_fp16"] for r in conv_rows])
        ),
        "mean_power_spikestream_fp8_conv2_to_8": float(
            np.mean([r["power_w_spikestream_fp8"] for r in conv_rows])
        ),
        "conv_energy_fraction_baseline": ratio(conv_energy, total_energy_base),
        "energy_gain_fp16_over_baseline": ratio(
            baseline.total_energy_j, stream16.total_energy_j
        ),
        "energy_gain_fp8_over_baseline": ratio(baseline.total_energy_j, stream8.total_energy_j),
        "energy_gain_fp8_over_fp16": ratio(stream16.total_energy_j, stream8.total_energy_j),
    }
    return ExperimentResult(name="energy", figure="fig4", rows=rows, headline=headline)


# --------------------------------------------------------------------------- #
# Figure 5: comparison with SoA neuromorphic accelerators
# --------------------------------------------------------------------------- #
def accelerator_comparison_experiment(
    timesteps: int = 500, batch_size: int = 4, seed: int = 2025
) -> ExperimentResult:
    """Latency and energy of every system on S-VGG11 layer 6 over 500 timesteps."""
    entries = compare_accelerators(timesteps=timesteps, batch_size=batch_size, seed=seed)
    rows = [entry.as_dict() for entry in entries]
    by_name = {entry.name: entry for entry in entries}
    headline = {}
    lsmcore = by_name.get("LSMCore")
    fp8 = by_name.get("SpikeStream FP8")
    fp16 = by_name.get("SpikeStream FP16")
    loihi = by_name.get("Loihi")
    if lsmcore and fp8 and fp16 and loihi:
        headline = {
            "lsmcore_latency_ms": lsmcore.latency_ms,
            "spikestream_fp8_latency_ms": fp8.latency_ms,
            "fp8_slowdown_vs_lsmcore": ratio(fp8.latency_ms, lsmcore.latency_ms),
            "fp16_speedup_vs_loihi": ratio(loihi.latency_ms, fp16.latency_ms),
            "fp8_speedup_vs_loihi": ratio(loihi.latency_ms, fp8.latency_ms),
            "fp16_energy_gain_vs_lsmcore": ratio(lsmcore.energy_mj, fp16.energy_mj),
            "fp8_energy_gain_vs_lsmcore": ratio(lsmcore.energy_mj, fp8.energy_mj),
        }
    return ExperimentResult(
        name="accelerator_comparison", figure="fig5", rows=rows, headline=headline
    )


# --------------------------------------------------------------------------- #
# Listing 1 micro-benchmark
# --------------------------------------------------------------------------- #
def spva_microbenchmark_experiment(
    stream_lengths=(1, 2, 4, 8, 16, 32, 64, 128), seed: int = 2025
) -> ExperimentResult:
    """Instruction-level comparison of the two SpVA listings over stream lengths."""
    rng = np.random.default_rng(seed)
    rows = []
    for length in stream_lengths:
        weights = rng.normal(size=max(int(length) * 2, 4))
        c_idcs = rng.choice(len(weights), size=int(length), replace=False)
        setup = make_spva_setup(c_idcs, weights)
        value_base, result_base = run_baseline_spva(setup)
        value_stream, result_stream = run_streaming_spva(setup)
        if not np.isclose(value_base, value_stream):
            raise AssertionError("baseline and streaming SpVA disagree functionally")
        rows.append(
            {
                "stream_length": int(length),
                "baseline_cycles": result_base.cycles,
                "streaming_cycles": result_stream.cycles,
                "speedup": ratio(result_base.cycles, result_stream.cycles),
                "baseline_instructions": result_base.instructions,
                "streaming_instructions": result_stream.instructions,
                "baseline_fpu_util": result_base.fpu_utilization,
                "streaming_fpu_util": result_stream.fpu_utilization,
            }
        )
    headline = {
        "asymptotic_speedup": rows[-1]["speedup"],
        "baseline_instructions_per_element": rows[-1]["baseline_instructions"]
        / rows[-1]["stream_length"],
    }
    return ExperimentResult(
        name="spva_microbenchmark", figure="listing1", rows=rows, headline=headline
    )
