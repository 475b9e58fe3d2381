"""Experiment drivers regenerating every figure of the paper's evaluation.

Besides the per-figure drivers, the package holds the registry of
declarative sweeps (:data:`SWEEPS` in :mod:`repro.eval.runner`, run through
:meth:`repro.session.Session.run`) and machine-readable exports
(:func:`experiment_to_json`, :func:`rows_to_csv`).
"""

from .metrics import ratio
from .reporting import experiment_to_json, format_table, render_experiment, rows_to_csv
from .experiments import (
    ExperimentResult,
    accelerator_comparison_experiment,
    energy_experiment,
    memory_footprint_experiment,
    speedup_experiment,
    spva_microbenchmark_experiment,
    utilization_experiment,
)
from .runner import SWEEPS, register_sweep
from .sweeps import optimization_ablation

__all__ = [
    "ratio",
    "experiment_to_json",
    "format_table",
    "render_experiment",
    "rows_to_csv",
    "ExperimentResult",
    "accelerator_comparison_experiment",
    "energy_experiment",
    "memory_footprint_experiment",
    "speedup_experiment",
    "spva_microbenchmark_experiment",
    "utilization_experiment",
    "SWEEPS",
    "register_sweep",
    "optimization_ablation",
]
