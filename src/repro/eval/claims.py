"""The paper's headline numbers, each stored once, and the model's scorecard.

:data:`PAPER_CLAIMS` holds one :class:`Claim` per headline number of the
paper's abstract, Section IV and Listing 1: the paper's value, the
scenario and headline key that measure it in this model, and the band the
model must stay inside.  :func:`fidelity` (the ``fidelity`` scenario,
``python -m repro.cli run --scenario fidelity``) evaluates every claim at
one batch size and seed; ``tests/integration/test_paper_shapes.py`` checks
every band, and ``FIDELITY.csv`` at the repository root is the committed
scorecard at the defaults, so a model change shows up as a diff.

The substrate is a behavioral model, not the authors' RTL testbed, so the
bands bound the *shape* of each result (who wins, by roughly what factor);
a band is never widened to let a model change through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .experiments import ExperimentResult

__all__ = ["Claim", "PAPER_CLAIMS", "fidelity"]


@dataclass(frozen=True)
class Claim:
    """One headline number and the model quantity that reproduces it.

    ``paper`` is ``None`` where the paper states no value (a shape bound
    only).  ``band`` is ``(low, high)``; the model value must lie strictly
    between the ends, and an end of ``None`` is open.  A claim with neither
    end is report-only: the scorecard lists it, no test bounds it.
    """

    id: str
    figure: str
    paper: Optional[float]
    scenario: str
    key: str
    band: Tuple[Optional[float], Optional[float]] = (None, None)
    note: str = ""

    def __post_init__(self):
        low, high = self.band
        for end in (low, high):
            if end is not None and not math.isfinite(end):
                raise ValueError(f"claim {self.id!r}: an open band end is None, got {end}")
        if low is not None and high is not None and not low < high:
            raise ValueError(f"claim {self.id!r}: empty band {self.band}")

    @property
    def banded(self) -> bool:
        return self.band != (None, None)

    def within(self, value: float) -> Optional[bool]:
        """Whether ``value`` lies inside the band; ``None`` when report-only."""
        if not self.banded:
            return None
        low, high = self.band
        return (low is None or value > low) and (high is None or value < high)


_ABSOLUTE_POWER = (
    "Absolute energies and powers come from a calibrated activity model, not "
    "post-layout power analysis; ratios between variants are the meaningful "
    "quantity."
)

PAPER_CLAIMS: Tuple[Claim, ...] = (
    # Figure 3a -----------------------------------------------------------
    Claim("fig3a_reduction", "fig3a", 2.75, "memory_footprint",
          "mean_csr_over_aer_reduction", (2.0, 4.0),
          "Depends on how many 16-bit fields an AER event carries; this model "
          "charges three (packed spatial address, channel, timestamp)."),
    # Figure 3b -----------------------------------------------------------
    Claim("util_baseline", "fig3b", 0.0928, "utilization",
          "network_fpu_util_baseline", (0.05, 0.15)),
    Claim("util_spikestream", "fig3b", 0.523, "utilization",
          "network_fpu_util_spikestream", (0.35, 0.60),
          "A few points below the paper because the DMA-bound fully connected "
          "layers and the weight-reload traffic of the last conv layers are "
          "fully accounted in runtime here."),
    Claim("util_layer1_baseline", "fig3b", 0.248, "utilization",
          "encode_fpu_util_baseline", (0.18, 0.32)),
    Claim("util_layer1_spikestream", "fig3b", 0.531, "utilization",
          "encode_fpu_util_spikestream", (0.45, 0.62)),
    # Figure 3c and the abstract -------------------------------------------
    Claim("speedup_fp16", "fig3c", 5.62, "speedup",
          "network_speedup_fp16_over_baseline", (4.5, 7.0)),
    Claim("speedup_fp16_end_to_end", "abstract", 4.39, "speedup",
          "network_speedup_fp16_over_baseline",
          note="The abstract's end-to-end S-VGG11 speedup, against the same "
               "cycle ratio as Fig. 3c's 5.62x. The model's mean per-layer FP16 "
               "speedup (mean_layer_speedup_fp16_over_baseline) reads 4.40 at "
               "batch 16, seed 2025, so the paper may mean a per-layer mean "
               "here."),
    Claim("peak_layer_speedup_fp16", "fig3c", None, "speedup",
          "peak_layer_speedup_fp16_over_baseline", (5.5, 8.0),
          "The paper gives no value: the deep layers approach the 7x ideal of "
          "the streaming SpVA loop."),
    Claim("speedup_fp8_over_fp16", "fig3c", 1.71, "speedup",
          "network_speedup_fp8_over_fp16", (1.3, 2.0),
          "The model charges FP8 only the documented extra output-unpacking "
          "iterations; the real kernel also pays integer work in the SIMD "
          "mask handling that the paper does not describe in enough detail "
          "to model."),
    Claim("speedup_fp8_over_baseline", "abstract", 7.29, "speedup",
          "network_speedup_fp8_over_baseline", (7.0, None),
          "The paper disagrees with itself: its Fig. 3c network speedups give "
          "5.62 x 1.71 = 9.61, not 7.29; which ratio 7.29 is is not stated."),
    # Figure 4 ------------------------------------------------------------
    Claim("power_baseline", "fig4", 0.1319, "energy",
          "mean_power_baseline_conv2_to_8", (0.08, 0.20), _ABSOLUTE_POWER),
    Claim("power_fp16", "fig4", 0.233, "energy",
          "mean_power_spikestream_fp16_conv2_to_8", (0.18, 0.32), _ABSOLUTE_POWER),
    Claim("power_fp8", "fig4", 0.219, "energy",
          "mean_power_spikestream_fp8_conv2_to_8",
          note="Checked only as drawing less than FP16. " + _ABSOLUTE_POWER),
    Claim("energy_gain_fp16", "fig4", 3.25, "energy",
          "energy_gain_fp16_over_baseline", (2.0, 4.5)),
    Claim("energy_gain_fp8", "fig4", 5.67, "energy",
          "energy_gain_fp8_over_baseline", (4.0, 8.0)),
    Claim("energy_gain_fp8_over_fp16", "fig4", None, "energy",
          "energy_gain_fp8_over_fp16", (None, 2.3),
          "The paper gives no value; its two gains imply 5.67 / 3.25 = 1.74."),
    Claim("conv_energy_fraction", "fig4", 0.828, "energy",
          "conv_energy_fraction_baseline", (0.7, None)),
    # Figure 5: layer 6 over 500 timesteps ---------------------------------
    Claim("lsmcore_latency_ms", "fig5a", 46.08, "accelerator_comparison",
          "lsmcore_latency_ms", (20.0, 100.0)),
    Claim("fp8_latency_ms", "fig5a", 217.14, "accelerator_comparison",
          "spikestream_fp8_latency_ms", (100.0, 500.0)),
    Claim("fp8_slowdown_vs_lsmcore", "fig5a", 4.71, "accelerator_comparison",
          "fp8_slowdown_vs_lsmcore", (3.0, 7.0)),
    Claim("fp16_speedup_vs_loihi", "fig5a", 1.31, "accelerator_comparison",
          "fp16_speedup_vs_loihi", (1.0, 2.0)),
    Claim("fp8_speedup_vs_loihi", "fig5a", 2.38, "accelerator_comparison",
          "fp8_speedup_vs_loihi", (1.5, 3.5)),
    Claim("fp16_energy_gain_vs_lsmcore", "fig5b", 2.37, "accelerator_comparison",
          "fp16_energy_gain_vs_lsmcore", (1.3, 3.5)),
    Claim("fp8_energy_gain_vs_lsmcore", "fig5b", 3.46, "accelerator_comparison",
          "fp8_energy_gain_vs_lsmcore", (2.0, 6.0)),
    # Listing 1 -----------------------------------------------------------
    Claim("spva_asymptotic_speedup", "listing1", None, "spva_microbenchmark",
          "asymptotic_speedup", (5.0, 9.0),
          "Listing 1c over Listing 1b at 128 elements on the instruction-level "
          "executor."),
    Claim("spva_baseline_instructions_per_element", "listing1", None,
          "spva_microbenchmark", "baseline_instructions_per_element", (7.5, 8.5),
          "Listing 1b issues eight instructions per element."),
)


def fidelity(session, batch_size: int = 16, seed: int = 2025) -> ExperimentResult:
    """Every claim of :data:`PAPER_CLAIMS` against the model at one batch and seed.

    Each scenario a claim names runs once on ``session`` (the S-VGG11
    variants behind Figures 3b, 3c and 4 are shared through its store).
    One row per claim: its paper value, the model's value, their ratio, the
    band and whether the model lies inside it (``None`` when report-only).
    """
    headlines: Dict[str, Dict[str, float]] = {}
    for claim in PAPER_CLAIMS:
        if claim.scenario not in headlines:
            accepted = session.describe(claim.scenario)["params"]
            params = {name: value for name, value in
                      (("batch_size", batch_size), ("seed", seed)) if name in accepted}
            headlines[claim.scenario] = session.run(claim.scenario, **params).headline
    rows = []
    for claim in PAPER_CLAIMS:
        model = float(headlines[claim.scenario][claim.key])
        rows.append({
            "id": claim.id,
            "figure": claim.figure,
            "paper": claim.paper,
            "model": model,
            "ratio": None if claim.paper is None else model / claim.paper,
            "band_low": claim.band[0],
            "band_high": claim.band[1],
            "within": claim.within(model),
        })
    banded = [row["within"] for row in rows if row["within"] is not None]
    headline = {"claims": len(rows), "banded": len(banded), "within_band": sum(banded)}
    return ExperimentResult(name="fidelity", figure="paper", rows=rows, headline=headline)
