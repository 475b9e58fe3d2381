"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure of the paper: it times the figure's
scenario on a shared :class:`~repro.session.Session` with
``pytest-benchmark`` and writes the resulting table (the same
rows/series the paper's figure reports) to ``benchmarks/results/`` so the
numbers can be inspected after a ``pytest benchmarks/ --benchmark-only`` run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval.reporting import render_experiment
from repro.session import Session

RESULTS_DIR = Path(__file__).parent / "results"

#: Batch size used by the figure benchmarks.  The paper uses 128 frames; the
#: default here keeps a benchmark iteration under a second.  Override with
#: the REPRO_BENCH_BATCH environment variable for a full-fidelity run.
BENCH_BATCH_SIZE = int(os.environ.get("REPRO_BENCH_BATCH", "4"))
BENCH_SEED = 2025


@pytest.fixture(scope="session")
def bench_session():
    """One serial session (and result store) shared by every benchmark."""
    with Session() as session:
        yield session


@pytest.fixture(scope="session")
def svgg11_variants(bench_session):
    """The three evaluated S-VGG11 variants, shared across figure benchmarks."""
    return bench_session.run_variants(batch_size=BENCH_BATCH_SIZE, seed=BENCH_SEED)


def publish(result, columns=None) -> str:
    """Render an experiment result, print it and persist it under results/."""
    text = render_experiment(
        f"{result.figure}: {result.name}",
        result.rows,
        notes="headline: " + ", ".join(f"{k}={v:.4g}" for k, v in result.headline.items()),
        columns=columns,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result.figure}_{result.name}.txt").write_text(text)
    print("\n" + text)
    return text
