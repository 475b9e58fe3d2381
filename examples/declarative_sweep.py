#!/usr/bin/env python3
"""Declarative sweeps: define a SweepSpec, stream it through any session.

This example shows the full lifecycle of a custom experiment under the
declarative plan API:

1. **describe** the parameter space as data (`ParameterSpace.grid` composed
   with a chained low-rate refinement — no point-generator function),
2. **register** a `SweepSpec` so it becomes a first-class scenario (CLI
   and every `Session` included),
3. **stream** rows with `Session.run_plan` — first on a serial session,
   then through a session's two-process pool, whose rows (in completion
   order) equal the serial ones point for point,
4. **collect** the canonical result with `Session.run`.

Run with::

    python examples/declarative_sweep.py
"""

import repro
from repro.eval.reporting import format_table
from repro.eval.sweeps import conv6_spec, counts_for_rate
from repro.kernels.conv import conv_layer_perf
from repro.types import Precision

import numpy as np


def sparsity_point(task):
    """One point: SpikeStream conv6 cycles at a given firing rate/precision."""
    spec = conv6_spec()
    rng = np.random.default_rng(task["seed"])
    counts = counts_for_rate(spec, task["rate"], rng)
    stats = conv_layer_perf(spec, counts, Precision.from_name(task["precision"]),
                            streaming=True)
    return {
        "rate": task["rate"],
        "precision": task["precision"],
        "cycles": stats.total_cycles,
        "fpu_util": stats.fpu_utilization,
    }


# A composed space: a coarse grid over two precisions, chained with a fine
# low-rate refinement that only runs in FP16.
SPACE = (
    repro.ParameterSpace.grid(rate=(0.1, 0.3, 0.5), precision=("fp16", "fp8"))
    + repro.ParameterSpace.grid(rate=(0.02, 0.05), precision=("fp16",))
)

SPEC = repro.SweepSpec(
    name="sparsity_profile",
    description="SpikeStream conv6 cycles over firing rate and precision",
    space=SPACE,
    point=sparsity_point,
    row_schema=("rate", "precision", "cycles", "fpu_util"),
    finalize=lambda rows, tasks, run_point: {
        "best_util": max(r["fpu_util"] for r in rows)
    },
    kwarg_axes={"rates": "rate", "precisions": "precision"},
    normalize={"rate": float},
)


def main():
    repro.register_sweep(SPEC)

    with repro.Session() as serial_session:
        print(f"registered scenario: {serial_session.describe('sparsity_profile')}\n")

        print("=== streaming serially (canonical order) ===")
        serial = {}
        for row in serial_session.run_plan("sparsity_profile"):
            serial[row.index] = row.row
            print(f"  [{row.index}] rate={row.row['rate']:<5} "
                  f"{row.row['precision']}  cycles={row.row['cycles']:.0f}")

    with repro.Session(jobs=2, backend="process") as session:
        print("\n=== streaming through the session's 2-process pool ===")
        for row in session.run_plan("sparsity_profile"):
            same = "equals" if row.row == serial[row.index] else "DIFFERS from"
            print(f"  [{row.index}] {same} the serial row")

        print("\n=== collected canonical result ===")
        result = session.run("sparsity_profile")
        print(format_table(result.rows))
        print(f"headline: {result.headline}")


if __name__ == "__main__":
    main()
