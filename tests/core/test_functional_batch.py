"""Equivalence tests for the batched *functional* execution engine.

``run_functional`` (one vectorized forward pass + the kernels'
``*_perf_batch`` entry points) must reproduce the per-frame loop kept as
``run_functional_reference`` **bit-for-bit**: every per-frame metric array
of the resulting :class:`~repro.core.results.InferenceResult`, at every
layer, compared with exact equality (no tolerances).  A ``smoke``-marked
test shares the check with ``tools/smoke.py`` so the standalone smoke
script and the tier-1 suite can never drift.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import baseline_config, spikestream_config
from repro.core.pipeline import SpikeStreamInference
from repro.eval.sweeps import functional_network
from repro.kernels.scheduler import SMALL_BATCH
from repro.snn.datasets import SyntheticCIFAR10
from repro.types import Precision, TensorShape

_SMOKE_PATH = Path(__file__).resolve().parents[2] / "tools" / "smoke.py"


def _small_svgg_workload(batch: int, seed: int = 31):
    network = functional_network(seed)
    frames, _ = SyntheticCIFAR10(
        seed=seed, image_shape=TensorShape(16, 16, 3)
    ).sample(batch)
    return network, frames


def assert_results_identical(a, b):
    assert a.layer_names == b.layer_names
    for layer_a, layer_b in zip(a.layers, b.layers):
        for metric in ("cycles", "fpu_utilization", "ipc", "energy_j", "power_w",
                       "dma_bytes"):
            assert np.array_equal(getattr(layer_a, metric), getattr(layer_b, metric)), (
                f"layer {layer_a.name!r} metric {metric!r} differs"
            )
    assert a.identical_to(b)


class TestFunctionalEngineEquivalence:
    @pytest.mark.parametrize(
        "config",
        [
            spikestream_config(Precision.FP16, batch_size=4, seed=9),
            spikestream_config(Precision.FP8, batch_size=3, seed=9),
            baseline_config(Precision.FP16, batch_size=3, seed=9),
        ],
        ids=["spikestream-fp16", "spikestream-fp8", "baseline-fp16"],
    )
    def test_small_svgg_identical(self, config):
        network, frames = _small_svgg_workload(config.batch_size)
        engine = SpikeStreamInference(config)
        vectorized = engine.run_functional(network, frames)
        reference = engine.run_functional_reference(network, frames)
        assert_results_identical(vectorized, reference)

    def test_batch_past_small_batch_identical(self):
        """Ten frames: the conv schedules take the loop across frames."""
        network, frames = _small_svgg_workload(10)
        engine = SpikeStreamInference(spikestream_config(batch_size=10, seed=5))
        vectorized = engine.run_functional(network, frames)
        reference = engine.run_functional_reference(network, frames)
        assert vectorized.layers[0].batch_size >= SMALL_BATCH
        assert_results_identical(vectorized, reference)

    def test_multi_timestep_identical(self):
        network, frames = _small_svgg_workload(3)
        engine = SpikeStreamInference(spikestream_config(batch_size=3, timesteps=3, seed=4))
        vectorized = engine.run_functional(network, frames)
        reference = engine.run_functional_reference(network, frames)
        assert_results_identical(vectorized, reference)
        # One per-layer entry per (frame, timestep) pair, frame-major.
        assert vectorized.layers[0].batch_size == 9

    def test_precomputed_activity_reused_across_variants(self):
        """One recorded activity feeds several configs, identical results."""
        network, frames = _small_svgg_workload(3)
        stream = SpikeStreamInference(spikestream_config(batch_size=3, seed=2))
        base = SpikeStreamInference(baseline_config(batch_size=3, seed=2))
        activity = stream.record_activity(network, frames)
        assert_results_identical(
            stream.run_functional(network, frames, activity=activity),
            stream.run_functional_reference(network, frames),
        )
        assert_results_identical(
            base.run_functional(network, frames, activity=activity),
            base.run_functional_reference(network, frames),
        )

    def test_mismatched_activity_rejected_before_caching(self):
        """A stale/mismatched activity= must raise, not poison results."""
        network, frames = _small_svgg_workload(3)
        engine = SpikeStreamInference(spikestream_config(batch_size=3, seed=2))
        activity = engine.record_activity(network, frames)
        with pytest.raises(ValueError, match="frame"):
            engine.run_functional(network, frames[:2], activity=activity)
        two_step = SpikeStreamInference(
            spikestream_config(batch_size=3, timesteps=2, seed=2)
        )
        with pytest.raises(ValueError, match="timestep"):
            two_step.run_functional(network, frames, activity=activity)

    def test_tiny_network_fixture_identical(self, tiny_network, rng):
        frames = [rng.random((8, 8, 3)) for _ in range(2)]
        engine = SpikeStreamInference(spikestream_config(batch_size=2, seed=3))
        assert_results_identical(
            engine.run_functional(tiny_network, frames),
            engine.run_functional_reference(tiny_network, frames),
        )


@pytest.mark.smoke
def test_functional_engine_smoke_matrix():
    """The tools/smoke.py functional step, wired into the tier-1 matrix."""
    spec = importlib.util.spec_from_file_location("repro_tools_smoke_fn", _SMOKE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("repro_tools_smoke_fn", module)
    spec.loader.exec_module(module)
    module.functional_equivalence_check()
