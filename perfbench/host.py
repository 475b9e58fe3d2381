"""The host a result was measured on, plus a fixed calibration microbenchmark.

Absolute times only compare across hosts once divided by how fast the host
runs a fixed piece of work.  :func:`unit_ms` times one such piece — a
float64 GEMM (what the forward pass spends its time in) and an
interpreter-bound loop (what costing spends its time in).  The workloads
time it before each phase of work and report every host time scaled by
``REFERENCE_UNIT_MS / unit_ms()``: the time the work would take on a host
where one calibration unit takes :data:`REFERENCE_UNIT_MS`.  The same
scaling removes the slow spells a shared host goes through, which stretch
the calibration and the program alike.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Dict

import numpy as np

__all__ = ["REFERENCE_UNIT_MS", "calibrate", "host_record", "unit_ms"]

#: One calibration unit on the host the benchmark was tuned on (2 CPUs,
#: x86_64, Python 3.11, numpy 2 with OpenBLAS), in a quiet period.
REFERENCE_UNIT_MS = 14.4


def _blas() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _gemm_ms() -> float:
    rng = np.random.default_rng(0)
    a = rng.random((192, 192))
    b = rng.random((192, 192))
    started = time.perf_counter()
    for _ in range(20):
        a @ b
    return (time.perf_counter() - started) * 1e3


def _python_ms() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i % 7
    return (time.perf_counter() - started) * 1e3


def unit_ms(samples: int = 3) -> float:
    """Median over ``samples`` of one calibration unit (GEMM + loop), in ms."""
    return statistics.median(_gemm_ms() + _python_ms() for _ in range(samples))


def calibrate(repeats: int = 5) -> Dict[str, float]:
    """Median over ``repeats`` of each calibration kernel, in ms."""
    gemm = statistics.median(_gemm_ms() for _ in range(repeats))
    python = statistics.median(_python_ms() for _ in range(repeats))
    return {"gemm_ms": gemm, "python_ms": python, "unit_ms": gemm + python}


def host_record() -> Dict[str, object]:
    """Schedulable CPUs, interpreter, numpy and BLAS of this process."""
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "calibration": calibrate(),
    }
