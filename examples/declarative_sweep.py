#!/usr/bin/env python3
"""Declarative sweeps: define a SweepSpec, stream it through any backend.

This example shows the full lifecycle of a custom experiment under the
declarative plan API:

1. **describe** the parameter space as data (`ParameterSpace.grid` composed
   with a chained low-rate refinement — no point-generator function),
2. **register** a `SweepSpec` so it becomes a first-class scenario (CLI,
   caching and all execution backends included),
3. **stream** rows with `Session.run_plan` — first serially, then through
   the session's two-process pool, which serves every row from the
   session's row cache,
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
    finalize=lambda rows, tasks, run_cached: {
        "best_util": max(r["fpu_util"] for r in rows)
    },
    kwarg_axes={"rates": "rate", "precisions": "precision"},
    normalize={"rate": float},
)


def main():
    repro.register_sweep(SPEC)

    with repro.Session(jobs=2, backend="process") as session:
        print(f"registered scenario: {session.describe('sparsity_profile')}\n")

        print("=== streaming serially (canonical order) ===")
        for row in session.run_plan("sparsity_profile", backend="serial"):
            tag = "cache" if row.cached else "fresh"
            print(f"  [{row.index}] {tag}: rate={row.row['rate']:<5} "
                  f"{row.row['precision']}  cycles={row.row['cycles']:.0f}")

        print("\n=== streaming through the session's 2-process pool ===")
        for row in session.run_plan("sparsity_profile"):
            print(f"  [{row.index}] {'cache' if row.cached else 'fresh'}")
        print("  (every row was served from the session's row cache: the "
              "serial pass already computed them)")

        print("\n=== collected canonical result ===")
        result = session.run("sparsity_profile")
        print(format_table(result.rows))
        print(f"headline: {result.headline}")


if __name__ == "__main__":
    main()
