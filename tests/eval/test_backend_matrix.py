"""Tier-1 wiring of the tools/smoke.py backend matrix.

One declarative SweepSpec runs through every execution backend
(serial / thread / process) and the rows must be bit-for-bit
identical.  The check itself lives in ``tools/smoke.py`` so the standalone
smoke script and this fast ``smoke``-marked test can never drift; the test
makes every plain ``pytest`` run cover the whole backend matrix.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_SMOKE_PATH = Path(__file__).resolve().parents[2] / "tools" / "smoke.py"


def _load_smoke():
    spec = importlib.util.spec_from_file_location("repro_tools_smoke", _SMOKE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("repro_tools_smoke", module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.smoke
def test_one_spec_identical_through_every_backend():
    smoke = _load_smoke()
    # Deterministic, kernel-only sweep: the whole backend matrix stays fast.
    smoke.backend_matrix_check("stream_length", lengths=(1, 4, 16, 64))


@pytest.mark.smoke
def test_seeded_spec_identical_through_every_backend():
    smoke = _load_smoke()
    # A seeded sweep too: per-point seed derivation must not depend on the
    # executing backend.
    smoke.backend_matrix_check("firing_rate", rates=(0.05, 0.3))
