"""Shared helpers for the pytest-benchmark ablation harness.

``bench_ablation.py`` times each sweep on a shared
:class:`~repro.session.Session` with ``pytest-benchmark`` and writes the
resulting table to ``benchmarks/results/`` so the numbers can be inspected
after a ``pytest benchmarks/bench_ablation.py --benchmark-only`` run.  The
paper's figures are scenarios (``python -m repro.cli run --scenario
<name>``), and their headline numbers are checked against the paper by
``python -m repro.cli run --scenario fidelity``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.eval.reporting import render_experiment
from repro.session import Session

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_SEED = 2025


@pytest.fixture(scope="session")
def bench_session():
    """One serial session (and result store) shared by every benchmark."""
    with Session() as session:
        yield session


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
