"""Per-request numerics policies through the serving layer.

The ``smoke``-marked test wires the ``tools/smoke.py`` precision-matrix
check (FP64-dense vs FP32 event-sparse served through one
:class:`repro.serve.InferenceServer`, agreement-gated) into the tier-1
pytest flow; the rest pin the serving-layer contract directly: requests
under different policies never coalesce into one micro-batch, the default
policy is visible in telemetry, and per-policy request counters appear as
traffic arrives.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.config import spikestream_config
from repro.eval.sweeps import functional_network
from repro.serve import InferenceServer
from repro.serve.batcher import functional_group_key
from repro.session import Session
from repro.snn.datasets import SyntheticCIFAR10
from repro.snn.numerics import REFERENCE, NumericsPolicy
from repro.types import TensorShape

_SMOKE_PATH = Path(__file__).resolve().parents[2] / "tools" / "smoke.py"

FAST = NumericsPolicy("fp32", "event_sparse")


def _load_smoke():
    spec = importlib.util.spec_from_file_location("repro_tools_smoke", _SMOKE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("repro_tools_smoke", module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.smoke
def test_precision_matrix_served_within_documented_bounds():
    smoke = _load_smoke()
    smoke.precision_matrix_check()


def test_different_policies_never_share_a_group_key():
    network = functional_network(11)
    frames, _ = SyntheticCIFAR10(
        seed=11, image_shape=TensorShape(16, 16, 3)
    ).sample(2)
    with Session() as session:
        config = session.config
        keys = {
            policy.key(): functional_group_key(
                session, config, network, frames, numerics=policy
            )
            for policy in (
                REFERENCE,
                NumericsPolicy("fp32", "dense"),
                NumericsPolicy("fp64", "event_sparse"),
                FAST,
            )
        }
    assert len(set(keys.values())) == len(keys), (
        "two numerics policies coalesced into one micro-batch group"
    )


def test_server_telemetry_reports_policies():
    config = spikestream_config(batch_size=1, timesteps=1, seed=13)
    network = functional_network(13)
    frames, _ = SyntheticCIFAR10(
        seed=13, image_shape=TensorShape(16, 16, 3)
    ).sample(2)
    with InferenceServer(workers=1, max_batch=4, max_wait_ms=5,
                         default_numerics=FAST) as server:
        server.submit_functional(network, frames, config=config).result(timeout=120)
        server.submit_functional(
            network, frames, config=config, numerics=REFERENCE
        ).result(timeout=120)
        stats = server.stats()
    assert stats["serve.numerics"] == {
        "default": "fp32-event_sparse",
        "precision": "fp32",
        "forward_path": "event_sparse",
    }
    assert stats["serve.numerics.non_reference"] == 1
    assert stats["serve.numerics.requests.fp32-event_sparse"] == 1
    assert stats["serve.numerics.requests.fp64-dense"] == 1
    # The two policies computed two distinct store entries from one workload.
    assert stats["serve.store"]["entries"] == 2


def test_default_reference_server_flags_zero_non_reference():
    with InferenceServer(workers=1) as server:
        stats = server.stats()
    assert stats["serve.numerics.non_reference"] == 0
    assert stats["serve.numerics"]["default"] == "fp64-dense"
