"""Sweep dispatch cost across execution backends.

Times one declarative sweep (`firing_rate`, 6 points) through every
execution backend — serial, thread pool and process pool — asserting along
the way that all three produce bit-for-bit identical rows (the same
guarantee `tools/smoke.py` gates CI on).

The sweep's points are a few milliseconds each, so this benchmark mostly
measures *dispatch overhead*: what a backend costs before it pays off.
Process pools only win once the per-point work dominates their
start-up (e.g. the `precision` sweep's full-network points); the printed
table makes that trade-off concrete.

Runs standalone (``python benchmarks/bench_backends.py``).
"""

import sys
import time

from repro.eval.runner import run_sweep

SEED = 2025
REPEATS = 3

BACKENDS = (
    ("serial", {"backend": "serial"}),
    ("thread x4", {"backend": "thread", "jobs": 4}),
    ("process x2", {"backend": "process", "jobs": 2}),
    ("process x4", {"backend": "process", "jobs": 4}),
)


def bench(sweep: str = "firing_rate", **point_kwargs):
    reference = None
    results = []
    for label, kwargs in BACKENDS:
        timings = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = run_sweep(sweep, seed=SEED, **kwargs, **point_kwargs)
            timings.append(time.perf_counter() - start)
        if reference is None:
            reference = result
        elif result.rows != reference.rows:
            raise AssertionError(f"backend {label} rows diverge from serial")
        results.append((label, min(timings)))
    return results


def main() -> int:
    print(f"== sweep dispatch across backends (firing_rate, {REPEATS} repeats) ==")
    results = bench()
    serial_s = results[0][1]
    for label, seconds in results:
        print(f"  {label:<12} {seconds * 1e3:8.1f} ms   "
              f"({serial_s / seconds:4.2f}x vs serial)")
    print("rows bit-for-bit identical across all backends")
    return 0


if __name__ == "__main__":
    sys.exit(main())
