"""Vectorized batch engine vs the per-frame reference loop.

Times an S-VGG11 statistical run at batch 1, 16 and 128 through both
execution paths of :class:`~repro.core.pipeline.SpikeStreamInference`:

* ``run_statistical`` — the vectorized batch engine (one pass per layer over
  the whole batch), and
* ``run_statistical_reference`` — the historical frame-by-frame loop,

asserts at every batch size that their
:class:`~repro.core.results.InferenceResult` objects are **bit-for-bit
identical**, and reports one row of wall-clock times and speedup per size.
Each row also carries ``draw_s`` and ``cost_s``: the best times of
``statistical_workloads`` alone (the per-frame spike-count draw) and of
``run_workloads`` alone on drawn workloads (the costing), the two halves of
the engine's time.  The four columns are timed round-robin, one run of each
per round, so that a slow spell of the host lands on all of them alike and
each column is the best of the same rounds.  ``cold_b1_s`` is the median
batch-1 time of a first call
under each of ``COSTER_CACHE_SIZE + 12`` distinct cost models, so every
compiled-coster lookup misses and compiles.  All three are reported only.
The acceptance bar (>= 3x) applies at batch 128 only, the paper's batch
size; batch 1 and 16 are reported so that a slow single-request path shows.

Runs standalone (``python benchmarks/bench_batch_engine.py [--json]``) or
under the pytest-benchmark harness
(``pytest benchmarks/bench_batch_engine.py``).  ``--json`` emits the result
dictionary as machine-readable JSON: the top-level fields are the batch-128
row in the schema ``benchmarks/bench_functional.py`` also emits (with
``identical`` true only when every size matched), and ``rows`` holds one
such row per batch size.
"""

import dataclasses
import statistics
import sys
import time

from repro.arch.params import DEFAULT_COSTS
from repro.config import spikestream_config
from repro.core.pipeline import SpikeStreamInference
from repro.kernels.batch_stats import COSTER_CACHE_SIZE

#: The paper's batch size: the speedup bar applies here.
FULL_BATCH = 128
#: Batch sizes timed, each with the number of timed runs per engine.
BATCH_REPEATS = {1: 15, 16: 5, FULL_BATCH: 3}
SEED = 2025
SPEEDUP_BAR = 3.0


def compare_engines(batch_size: int = FULL_BATCH, seed: int = SEED, repeats: int = 3):
    """Time both paths at one batch size and verify equivalence; returns a row.

    Each of ``repeats`` rounds runs the engine, the draw alone, the costing
    alone and the reference loop once, in that order; every column keeps
    its best round.
    """
    engine = SpikeStreamInference(spikestream_config(batch_size=batch_size, seed=seed))
    engine.run_statistical(batch_size=min(8, batch_size), seed=1)  # warm-up
    plans = engine.optimizer.plan_svgg11()
    workloads = engine.statistical_workloads(plans, batch_size, seed)
    columns = {
        "vectorized_s": lambda: engine.run_statistical(batch_size=batch_size, seed=seed),
        "draw_s": lambda: engine.statistical_workloads(plans, batch_size, seed),
        "cost_s": lambda: engine.run_workloads(workloads),
        "looped_s": lambda: engine.run_statistical_reference(batch_size=batch_size, seed=seed),
    }
    best = dict.fromkeys(columns, float("inf"))
    last = {}
    for _ in range(repeats):
        for name, run in columns.items():
            start = time.perf_counter()
            last[name] = run()
            best[name] = min(best[name], time.perf_counter() - start)
    return {
        "benchmark": "batch_engine",
        "batch_size": batch_size,
        **best,
        "speedup": (best["looped_s"] / best["vectorized_s"]
                    if best["vectorized_s"] > 0 else float("inf")),
        "identical": last["vectorized_s"].identical_to(last["looped_s"]),
    }


def cold_batch1_s(seed: int = SEED) -> float:
    """Median time of a batch-1 run that compiles every layer's coster.

    Each of ``COSTER_CACHE_SIZE + 12`` cost models, which differ only in the
    DMA setup cycles, runs once: every kernel's memo misses and compiles,
    and evicts its least recently used entries once it is full.
    """
    times = []
    for index in range(COSTER_CACHE_SIZE + 12):
        costs = dataclasses.replace(DEFAULT_COSTS, dma_setup_cycles=20.0 + index / 64)
        engine = SpikeStreamInference(spikestream_config(batch_size=1, seed=seed), costs=costs)
        start = time.perf_counter()
        engine.run_statistical(batch_size=1, seed=seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def compare_batch_sizes(seed: int = SEED):
    """One :func:`compare_engines` row per batch size of :data:`BATCH_REPEATS`.

    The top level is the batch-128 row plus ``cold_b1_s``, except that
    ``identical`` holds only when every size matched.
    """
    rows = [compare_engines(size, seed, repeats) for size, repeats in BATCH_REPEATS.items()]
    result = dict(rows[-1])
    result["identical"] = all(row["identical"] for row in rows)
    result["rows"] = rows
    result["cold_b1_s"] = cold_batch1_s(seed)
    return result


def test_batch_engine_equivalent_and_faster(benchmark):
    """Vectorized engine: bit-for-bit equal to the loop at every size, >= 3x at 128."""
    engine = SpikeStreamInference(spikestream_config(batch_size=FULL_BATCH, seed=SEED))
    vectorized = benchmark(engine.run_statistical, batch_size=FULL_BATCH, seed=SEED)
    reference = engine.run_statistical_reference(batch_size=FULL_BATCH, seed=SEED)
    assert vectorized.identical_to(reference)

    result = compare_batch_sizes()
    assert result["identical"]
    assert result["speedup"] >= SPEEDUP_BAR, (
        f"vectorized engine only {result['speedup']:.2f}x faster at batch {FULL_BATCH} "
        f"({result['vectorized_s']:.3f}s vs {result['looped_s']:.3f}s)"
    )


def _pretty(result) -> str:
    lines = [
        "S-VGG11 statistical run, per-frame loop vs batch engine "
        "(best of N interleaved rounds):",
        f"  {'batch':>5}  {'loop (ms)':>10}  {'engine (ms)':>11}  {'draw (ms)':>9}"
        f"  {'costing (ms)':>12}  {'speedup':>8}  bit-for-bit",
    ]
    for row in result["rows"]:
        lines.append(
            f"  {row['batch_size']:>5}  {row['looped_s'] * 1e3:>10.1f}  "
            f"{row['vectorized_s'] * 1e3:>11.2f}  {row['draw_s'] * 1e3:>9.2f}  "
            f"{row['cost_s'] * 1e3:>12.2f}  "
            f"{row['speedup']:>7.2f}x  {'yes' if row['identical'] else 'NO'}"
        )
    lines.append(
        f"  batch 1, every coster compiled afresh (median of "
        f"{COSTER_CACHE_SIZE + 12} cost models): {result['cold_b1_s'] * 1e3:.2f} ms"
    )
    lines.append(f"  acceptance bar: >= {SPEEDUP_BAR}x at batch {FULL_BATCH}")
    return "\n".join(lines)


def main(argv=None) -> int:
    from pathlib import Path
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    from common import emit_result, speedup_gate

    result = compare_batch_sizes()
    emit_result(result, argv, _pretty)
    return speedup_gate(result, SPEEDUP_BAR)


if __name__ == "__main__":
    sys.exit(main())
