#!/usr/bin/env python3
"""Comparison with state-of-the-art neuromorphic accelerators (Figure 5).

Reproduces the paper's Section IV-C study: the sixth convolutional layer of
S-VGG11 executed for 500 timesteps on Loihi, ODIN, LSMCore, NeuroRVcore and
the three Snitch-cluster variants (baseline FP16, SpikeStream FP16/FP8),
run through the unified Session API's ``accelerator_comparison`` scenario.

Run with::

    python examples/accelerator_comparison.py
"""

from repro import Session
from repro.eval.claims import PAPER_CLAIMS
from repro.eval.reporting import format_table


def main():
    with Session() as session:
        result = session.run("accelerator_comparison", timesteps=500, batch_size=4, seed=2025)

    rows = sorted(result.rows, key=lambda row: row["latency_ms"])
    print("=== S-VGG11 layer 6, 500 timesteps ===")
    print(format_table(rows, columns=[
        "system", "latency_ms", "energy_mj", "peak_gsop", "technology_nm", "precision_bits",
    ]))

    print("\nHeadline ratios (model vs paper, from repro.eval.claims):")
    for claim in PAPER_CLAIMS:
        if claim.scenario == "accelerator_comparison":
            print(f"  {claim.key:28s}: {result.headline[claim.key]:8.2f} ({claim.paper})")


if __name__ == "__main__":
    main()
