"""The built-in sweep specs and the one sweep registry.

The six built-in sweeps are declarative :class:`~repro.plan.SweepSpec`
instances registered in :data:`SWEEPS`: a named
:class:`~repro.plan.ParameterSpace`, a picklable point function, a row
schema and a headline finalizer.  Nothing here knows *how* points are
executed: :meth:`repro.session.Session.run` collects a registered sweep
and :meth:`~repro.session.Session.run_plan` streams it, both on the
session's shared pool, and ``repro.cli run --scenario NAME`` runs one
from the command line.

Execution guarantees (inherited from :mod:`repro.plan` and
:func:`repro.backends.execute`):

* **per-point seeding** — every point derives its own seed from the base
  seed, the sweep name and the point's parameters
  (:func:`~repro.plan.point_seed`), so results are independent of
  evaluation order, of which subset of points is requested, and of
  whether a pool executes them;
* **serial fallback** — pool-infrastructure failures degrade to the serial
  path so a sweep always completes, while errors raised by a point itself
  propagate to the caller.

Registering a new sweep takes one :func:`register_sweep` call with a
``SweepSpec`` — see the README's "Defining a new sweep" walkthrough.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from ..plan import ParameterSpace, SweepSpec
from ..snn.svgg11 import SVGG11_LAYER_FIRING_RATES
from ..types import Precision
from .metrics import ratio
from .sweeps import (
    DEFAULT_CORE_COUNTS,
    DEFAULT_FIRING_RATES,
    DEFAULT_FUNCTIONAL_BATCHES,
    DEFAULT_PRECISIONS,
    DEFAULT_STREAM_LENGTHS,
    DEFAULT_STRIDED_INDIRECT_RATES,
    conv6_spec,
    core_count_point,
    counts_for_rate,
    firing_rate_point,
    fp8_over_fp16_headline,
    functional_point,
    precision_point,
    stream_length_point,
    strided_indirect_point,
)

# --------------------------------------------------------------------------- #
# Point tasks (top-level functions so process pools can pickle them)
# --------------------------------------------------------------------------- #
def _run_firing_rate_point(task: Dict[str, object]) -> Dict[str, object]:
    return firing_rate_point(
        task["rate"], Precision.from_name(task["precision"]), seed=task["seed"]
    )


def _run_core_count_point(task: Dict[str, object]) -> Dict[str, object]:
    # Every core count must cost the *same* spike-count map for the sweep to
    # be a strong-scaling study, so the map is drawn from a seed that does
    # not include the core count (see SweepSpec.task_seed / compute_params).
    spec = conv6_spec()
    rng = np.random.default_rng(task["seed"])
    counts = counts_for_rate(spec, task["rate"], rng)
    return core_count_point(task["cores"], counts, Precision.from_name(task["precision"]))


def _run_precision_point(task: Dict[str, object]) -> Dict[str, object]:
    return precision_point(
        Precision.from_name(task["precision"]), batch_size=task["batch"], seed=task["seed"]
    )


def _run_stream_length_point(task: Dict[str, object]) -> Dict[str, object]:
    return stream_length_point(task["length"])


def _run_strided_indirect_point(task: Dict[str, object]) -> Dict[str, object]:
    return strided_indirect_point(
        task["rate"], Precision.from_name(task["precision"]), seed=task["seed"]
    )


def _run_functional_batch_point(task: Dict[str, object]) -> Dict[str, object]:
    return functional_point(
        task["frames"], Precision.from_name(task["precision"]), seed=task["seed"]
    )


def _core_count_finalize(
    rows: List[Dict[str, object]],
    tasks: List[Dict[str, object]],
    run_point: Callable[[Dict[str, object]], Dict[str, object]],
) -> Dict[str, float]:
    """Anchor strong-scaling efficiency to an explicit 1-core reference.

    When the requested points do not include 1 core, the reference is
    evaluated separately on the same spike-count map (same data seed)
    instead of being extrapolated or omitted, so the efficiency column is
    meaningful for any core-count subset.
    """
    reference = None
    for row in rows:
        if row["cores"] == 1:
            reference = row["cycles"]
    if reference is None:
        anchor_params = {
            key: value for key, value in tasks[0].items() if key not in ("seed", "batch")
        }
        anchor_params["cores"] = 1
        reference = run_point(anchor_params)["cycles"]
    for row in rows:
        row["parallel_efficiency"] = ratio(reference, row["cycles"] * row["cores"])
    last = rows[-1]
    return {f"efficiency_at_{last['cores']}_cores": last["parallel_efficiency"]}


def _precision_name(value: object) -> object:
    """A ``precision`` axis value given as a :class:`Precision` member, as its
    name, so members and names run the same point."""
    return value.value if isinstance(value, Precision) else value


# --------------------------------------------------------------------------- #
# The built-in sweep specs
# --------------------------------------------------------------------------- #
SWEEPS: Dict[str, SweepSpec] = {}


def register_sweep(spec: SweepSpec) -> SweepSpec:
    """Register a spec under its name; later registrations replace earlier.

    A registered sweep is a first-class scenario: ``Session.run(name)``,
    ``Session.run_plan(name)`` and ``repro.cli run --scenario`` all look it
    up here.
    """
    SWEEPS[spec.name] = spec
    return spec


register_sweep(SweepSpec(
    name="firing_rate",
    description="SpikeStream vs baseline conv6 cycles across input firing rates",
    space=ParameterSpace.grid(rate=DEFAULT_FIRING_RATES, precision=("fp16",)),
    point=_run_firing_rate_point,
    row_schema=("firing_rate", "baseline_cycles", "spikestream_cycles",
                "speedup", "spikestream_fpu_util"),
    finalize=lambda rows, tasks, run_point: {"max_speedup": max(r["speedup"] for r in rows)},
    kwarg_axes={"rates": "rate", "precision": "precision"},
    normalize={"rate": float, "precision": _precision_name},
))

register_sweep(SweepSpec(
    name="core_count",
    description="strong scaling of the conv6 kernel over worker-core counts",
    space=ParameterSpace.grid(
        cores=DEFAULT_CORE_COUNTS,
        rate=(SVGG11_LAYER_FIRING_RATES["conv6"],),
        precision=("fp16",),
    ),
    point=_run_core_count_point,
    row_schema=("cores", "cycles", "fpu_util", "parallel_efficiency"),
    finalize=_core_count_finalize,
    kwarg_axes={"core_counts": "cores", "precision": "precision", "firing_rate": "rate"},
    normalize={"cores": int, "rate": float, "precision": _precision_name},
))

register_sweep(SweepSpec(
    name="precision",
    description="full-network runtime at FP32/FP16/FP8",
    space=ParameterSpace.grid(precision=tuple(p.value for p in DEFAULT_PRECISIONS)),
    point=_run_precision_point,
    row_schema=("precision", "simd_width", "runtime_ms", "energy_mj", "fpu_util"),
    finalize=lambda rows, tasks, run_point: fp8_over_fp16_headline(rows),
    batched=True,
    kwarg_axes={"precisions": "precision"},
    normalize={"precision": _precision_name},
))

register_sweep(SweepSpec(
    name="stream_length",
    description="SpVA speedup over the baseline listing across stream lengths",
    space=ParameterSpace.grid(length=DEFAULT_STREAM_LENGTHS),
    point=_run_stream_length_point,
    row_schema=("stream_length", "baseline_cycles", "streaming_cycles", "speedup"),
    finalize=lambda rows, tasks, run_point: {"asymptotic_speedup": rows[-1]["speedup"]},
    seeded=False,
    kwarg_axes={"lengths": "length"},
    normalize={"length": int},
))

register_sweep(SweepSpec(
    name="strided_indirect",
    description="additional speedup of strided-indirect streams by firing rate",
    space=ParameterSpace.grid(rate=DEFAULT_STRIDED_INDIRECT_RATES, precision=("fp16",)),
    point=_run_strided_indirect_point,
    row_schema=("firing_rate", "spikestream_cycles", "strided_indirect_cycles",
                "additional_speedup", "spikestream_fpu_util",
                "strided_indirect_fpu_util"),
    finalize=lambda rows, tasks, run_point: {
        "max_additional_speedup": max(r["additional_speedup"] for r in rows)
    },
    kwarg_axes={"rates": "rate", "precision": "precision"},
    normalize={"rate": float, "precision": _precision_name},
))


register_sweep(SweepSpec(
    name="functional_batch",
    description="batched functional engine (real spike activity) across frame-batch sizes",
    space=ParameterSpace.grid(frames=DEFAULT_FUNCTIONAL_BATCHES, precision=("fp16",)),
    point=_run_functional_batch_point,
    row_schema=("frames", "total_cycles", "total_energy_mj", "network_fpu_utilization"),
    finalize=lambda rows, tasks, run_point: {
        "cycles_per_frame_spread": ratio(
            max(r["total_cycles"] for r in rows), min(r["total_cycles"] for r in rows)
        )
    },
    # Every frame count costs the same deterministic network and the same
    # frame-stream prefix (spawned per-frame RNGs are prefix-stable), so the
    # sweep isolates the batch axis instead of resampling data per point.
    compute_params=("frames", "precision"),
    kwarg_axes={"frame_counts": "frames", "precision": "precision"},
    normalize={"frames": int, "precision": _precision_name},
))


def get_sweep(name: str) -> SweepSpec:
    """The registered spec for ``name`` (KeyError lists the alternatives)."""
    if name not in SWEEPS:
        raise KeyError(f"unknown sweep {name!r}; available: {', '.join(sorted(SWEEPS))}")
    return SWEEPS[name]


__all__ = [
    "SWEEPS",
    "get_sweep",
    "register_sweep",
]
