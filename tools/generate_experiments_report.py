#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured numbers for every figure.

Runs every experiment driver with a configurable batch size and rewrites
``EXPERIMENTS.md`` at the repository root.  Used to keep the committed report
in sync with the model; CI or a user can re-run it at any time::

    python tools/generate_experiments_report.py            # batch of 16 frames
    python tools/generate_experiments_report.py --batch 128
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.eval.reporting import format_table
from repro.session import Session

REPO_ROOT = Path(__file__).resolve().parent.parent

PAPER_VALUES = {
    "fig3a_reduction": 2.75,
    "util_baseline": 0.0928,
    "util_spikestream": 0.523,
    "util_layer1_baseline": 0.248,
    "util_layer1_spikestream": 0.531,
    "speedup_fp16": 5.62,
    "speedup_fp8_over_fp16": 1.71,
    "speedup_fp8_over_baseline": 7.29,
    "power_baseline": 0.1319,
    "power_fp16": 0.233,
    "power_fp8": 0.219,
    "energy_gain_fp16": 3.25,
    "energy_gain_fp8": 5.67,
    "conv_energy_fraction": 0.828,
    "lsmcore_latency_ms": 46.08,
    "fp8_latency_ms": 217.14,
    "fp8_slowdown_vs_lsmcore": 4.71,
    "fp16_speedup_vs_loihi": 1.31,
    "fp8_speedup_vs_loihi": 2.38,
    "fp16_energy_gain_vs_lsmcore": 2.37,
    "fp8_energy_gain_vs_lsmcore": 3.46,
}


def _row(metric: str, paper: float, measured: float, unit: str = "") -> str:
    ratio = measured / paper if paper else float("nan")
    return f"| {metric} | {paper:.4g}{unit} | {measured:.4g}{unit} | {ratio:.2f}x |"


def build_report(batch_size: int, seed: int) -> str:
    with Session() as session:
        variants = session.run_variants(batch_size=batch_size, seed=seed)
        footprint = session.run("memory_footprint", batch_size=max(batch_size, 16), seed=seed)
        utilization = session.run("utilization", variants=variants)
        speedups = session.run("speedup", variants=variants)
        energy = session.run("energy", variants=variants)
        comparison = session.run("accelerator_comparison", timesteps=500, batch_size=4,
                                 seed=seed)
        spva = session.run("spva_microbenchmark")

    p = PAPER_VALUES
    u, s, e, c = utilization.headline, speedups.headline, energy.headline, comparison.headline

    lines = []
    lines.append("# EXPERIMENTS — paper vs. measured")
    lines.append("")
    lines.append(
        f"All measured values below were produced by `tools/generate_experiments_report.py` "
        f"on the behavioral cluster model with a batch of {batch_size} synthetic frames "
        f"(seed {seed}); the paper uses 128 CIFAR-10 frames on a cycle-accurate RTL "
        "simulation, so absolute agreement is not expected — the reproduction targets the "
        "*shape* of each result (ordering, approximate factors, crossovers).  Re-run the "
        "script (optionally with `--batch 128`) to regenerate this file; per-figure tables "
        "are also written by `pytest benchmarks/ --benchmark-only` into `benchmarks/results/`."
    )
    lines.append("")
    lines.append("## Headline comparison")
    lines.append("")
    lines.append("| metric | paper | measured | measured/paper |")
    lines.append("|---|---|---|---|")
    lines.append(_row("Fig 3a: mean CSR-over-AER footprint reduction",
                      p["fig3a_reduction"], footprint.headline["mean_csr_over_aer_reduction"], "x"))
    lines.append(_row("Fig 3b: network FPU utilization, baseline FP16",
                      p["util_baseline"], u["network_fpu_util_baseline"]))
    lines.append(_row("Fig 3b: network FPU utilization, SpikeStream FP16",
                      p["util_spikestream"], u["network_fpu_util_spikestream"]))
    lines.append(_row("Fig 3b: layer-1 FPU utilization, baseline",
                      p["util_layer1_baseline"], u["encode_fpu_util_baseline"]))
    lines.append(_row("Fig 3b: layer-1 FPU utilization, SpikeStream",
                      p["util_layer1_spikestream"], u["encode_fpu_util_spikestream"]))
    lines.append(_row("Fig 3c: SpikeStream FP16 speedup over baseline (network)",
                      p["speedup_fp16"], s["network_speedup_fp16_over_baseline"], "x"))
    lines.append(_row("Fig 3c: SpikeStream FP8 speedup over FP16 (network)",
                      p["speedup_fp8_over_fp16"], s["network_speedup_fp8_over_fp16"], "x"))
    lines.append(_row("Abstract: SpikeStream FP8 speedup over baseline",
                      p["speedup_fp8_over_baseline"], s["network_speedup_fp8_over_baseline"], "x"))
    lines.append(_row("Fig 4: mean power, baseline FP16 (layers 2-8)",
                      p["power_baseline"], e["mean_power_baseline_conv2_to_8"], " W"))
    lines.append(_row("Fig 4: mean power, SpikeStream FP16 (layers 2-8)",
                      p["power_fp16"], e["mean_power_spikestream_fp16_conv2_to_8"], " W"))
    lines.append(_row("Fig 4: mean power, SpikeStream FP8 (layers 2-8)",
                      p["power_fp8"], e["mean_power_spikestream_fp8_conv2_to_8"], " W"))
    lines.append(_row("Fig 4: energy-efficiency gain, SpikeStream FP16 vs baseline",
                      p["energy_gain_fp16"], e["energy_gain_fp16_over_baseline"], "x"))
    lines.append(_row("Fig 4: energy-efficiency gain, SpikeStream FP8 vs baseline",
                      p["energy_gain_fp8"], e["energy_gain_fp8_over_baseline"], "x"))
    lines.append(_row("Fig 4: conv-layer share of total baseline energy",
                      p["conv_energy_fraction"], e["conv_energy_fraction_baseline"]))
    lines.append(_row("Fig 5a: LSMCore latency (layer 6, 500 timesteps)",
                      p["lsmcore_latency_ms"], c["lsmcore_latency_ms"], " ms"))
    lines.append(_row("Fig 5a: SpikeStream FP8 latency (layer 6, 500 timesteps)",
                      p["fp8_latency_ms"], c["spikestream_fp8_latency_ms"], " ms"))
    lines.append(_row("Fig 5a: SpikeStream FP8 slowdown vs LSMCore",
                      p["fp8_slowdown_vs_lsmcore"], c["fp8_slowdown_vs_lsmcore"], "x"))
    lines.append(_row("Fig 5a: SpikeStream FP16 speedup vs Loihi",
                      p["fp16_speedup_vs_loihi"], c["fp16_speedup_vs_loihi"], "x"))
    lines.append(_row("Fig 5a: SpikeStream FP8 speedup vs Loihi",
                      p["fp8_speedup_vs_loihi"], c["fp8_speedup_vs_loihi"], "x"))
    lines.append(_row("Fig 5b: energy gain vs LSMCore, SpikeStream FP16",
                      p["fp16_energy_gain_vs_lsmcore"], c["fp16_energy_gain_vs_lsmcore"], "x"))
    lines.append(_row("Fig 5b: energy gain vs LSMCore, SpikeStream FP8",
                      p["fp8_energy_gain_vs_lsmcore"], c["fp8_energy_gain_vs_lsmcore"], "x"))
    lines.append("")
    lines.append("Known deviations and their causes are discussed at the end of this file.")
    lines.append("")

    sections = [
        ("Figure 3a — ifmap memory footprint and firing activity", footprint,
         ["layer", "ifmap_shape", "firing_rate_mean", "aer_bytes_mean", "csr_bytes_mean", "reduction"]),
        ("Figure 3b — FPU utilization and IPC per layer (FP16)", utilization,
         ["layer", "fpu_util_baseline", "fpu_util_spikestream", "ipc_baseline", "ipc_spikestream"]),
        ("Figure 3c — per-layer speedups", speedups,
         ["layer", "speedup_fp16_over_baseline", "speedup_fp8_over_fp16", "speedup_fp8_over_baseline"]),
        ("Figure 4 — energy and power per layer", energy,
         ["layer", "energy_mj_baseline", "energy_mj_spikestream_fp16", "energy_mj_spikestream_fp8",
          "power_w_baseline", "power_w_spikestream_fp16", "power_w_spikestream_fp8"]),
        ("Figure 5 — comparison with SoA neuromorphic accelerators", comparison,
         ["system", "latency_ms", "energy_mj", "peak_gsop", "technology_nm", "precision_bits"]),
        ("Listing 1 — SpVA inner-loop micro-benchmark", spva,
         ["stream_length", "baseline_cycles", "streaming_cycles", "speedup"]),
    ]
    for title, result, columns in sections:
        lines.append(f"## {title}")
        lines.append("")
        lines.append("```")
        lines.append(format_table(result.rows, columns=columns))
        lines.append("```")
        lines.append("")

    lines.append("## Known deviations")
    lines.append("")
    lines.append(
        "* **FP8-over-FP16 speedup** measures ≈1.9–2.0x against the paper's 1.71x: the "
        "behavioral model only charges the documented extra output-unpacking iterations to "
        "FP8, while the real kernel also pays extra integer work in the SIMD mask handling "
        "that is not described in enough detail to model."
    )
    lines.append(
        "* **Network-average FPU utilization** for SpikeStream lands a few points below the "
        "paper's 52.3 % because the DMA-bound fully connected layers and the weight-reload "
        "traffic of the last conv layers are fully accounted in runtime here."
    )
    lines.append(
        "* **Footprint reduction** (≈2.9x vs 2.75x) depends on how many 16-bit fields an AER "
        "event carries; this model charges three (packed spatial address, channel, timestamp)."
    )
    lines.append(
        "* **Absolute energies/powers** come from a calibrated activity model, not post-layout "
        "power analysis; ratios between variants are the meaningful quantity."
    )
    lines.append("")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, default=16, help="frames per variant (paper: 128)")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "EXPERIMENTS.md")
    args = parser.parse_args()
    report = build_report(batch_size=args.batch, seed=args.seed)
    args.output.write_text(report)
    print(f"wrote {args.output} ({len(report.splitlines())} lines)")


if __name__ == "__main__":
    main()
