"""Experiment drivers regenerating every figure of the paper's evaluation.

Besides the per-figure drivers and sequential sweeps, the package exposes the
parallel sweep runner (:func:`run_sweep` in :mod:`repro.eval.runner`) and
machine-readable exports (:func:`experiment_to_json`, :func:`rows_to_csv`).
"""

from .metrics import geometric_mean, ratio, summarize
from .reporting import experiment_to_json, format_table, render_experiment, rows_to_csv
from .experiments import (
    ExperimentResult,
    accelerator_comparison_experiment,
    energy_experiment,
    memory_footprint_experiment,
    run_svgg11_variants,
    speedup_experiment,
    spva_microbenchmark_experiment,
    utilization_experiment,
)
from .runner import (
    SweepSpec,
    SWEEPS,
    available_sweeps,
    point_seed,
    register_sweep,
    run_sweep,
)
from .sweeps import (
    core_count_sweep,
    firing_rate_sweep,
    optimization_ablation,
    precision_sweep,
    stream_length_sweep,
    strided_indirect_sweep,
)

__all__ = [
    "geometric_mean",
    "ratio",
    "summarize",
    "experiment_to_json",
    "format_table",
    "render_experiment",
    "rows_to_csv",
    "ExperimentResult",
    "accelerator_comparison_experiment",
    "energy_experiment",
    "memory_footprint_experiment",
    "run_svgg11_variants",
    "speedup_experiment",
    "spva_microbenchmark_experiment",
    "utilization_experiment",
    "SweepSpec",
    "SWEEPS",
    "available_sweeps",
    "point_seed",
    "register_sweep",
    "run_sweep",
    "core_count_sweep",
    "firing_rate_sweep",
    "optimization_ablation",
    "precision_sweep",
    "stream_length_sweep",
    "strided_indirect_sweep",
]
