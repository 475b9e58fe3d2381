"""Accuracy contract of the selectable-precision golden engine.

Three claims, gated on the real S-VGG11 workload across all three evaluated
hardware variants (baseline FP16, SpikeStream FP16, SpikeStream FP8):

* the FP64 dense policy routed through the batched engine stays
  **bit-for-bit identical** to
  :meth:`~repro.core.pipeline.SpikeStreamInference.run_functional_reference`
  — selecting the default policy changes nothing;
* the FP32 event-sparse policy stays inside the documented accuracy bound
  (:data:`~repro.snn.numerics.CLASSIFICATION_AGREEMENT_BOUND` classification
  agreement, :data:`~repro.snn.numerics.SPIKE_COUNT_TOLERANCE` per-layer
  spike-count deviation) and its costed results stay close to the
  reference costing;
* the policy is part of a run's identity: FP32 and FP64 functional runs get
  **distinct** result-store fingerprints and entries, so one can never be
  served where the other was requested.
"""

import numpy as np
import pytest

from repro.core.pipeline import SpikeStreamInference
from repro.eval.experiments import svgg11_variant_configs
from repro.session import Session, functional_svgg11_setup
from repro.snn.numerics import (
    CLASSIFICATION_AGREEMENT_BOUND,
    REFERENCE,
    SPIKE_COUNT_TOLERANCE,
    NumericsPolicy,
)

BATCH = 2
SEED = 7

FAST = NumericsPolicy("fp32", "event_sparse")


@pytest.fixture(scope="module")
def svgg11_workload():
    """The real S-VGG11 network and a small frame batch, built once."""
    return functional_svgg11_setup(batch_size=BATCH, seed=SEED)


@pytest.fixture(scope="module")
def variant_engines():
    return {
        name: SpikeStreamInference(config)
        for name, config in svgg11_variant_configs(
            batch_size=BATCH, seed=SEED
        ).items()
    }


@pytest.fixture(scope="module")
def activities(svgg11_workload):
    """Batched activity under the reference and the fast policy, recorded once."""
    network, frames = svgg11_workload
    return {
        "reference": network.forward_batch(frames, policy=REFERENCE),
        "fast": network.forward_batch(frames, policy=FAST),
    }


def _layer_spike_counts(network, activity):
    return [
        sum(float(record.output_spikes.sum()) for record in activity.for_layer(index))
        for index in network.weighted_layers
    ]


def _predictions(network, activity):
    """Class predictions from recorded activity (what ``predict_batch`` does)."""
    output_index = network.weighted_layers[-1]
    counts = None
    for record in activity.for_layer(output_index):
        flat = record.output_spikes.reshape(record.batch_size, -1)
        counts = flat if counts is None else counts + flat
    return np.argmax(counts, axis=1)


def test_fp64_dense_is_bit_for_bit_reference_on_all_variants(
    svgg11_workload, variant_engines, activities
):
    network, frames = svgg11_workload
    for name, engine in variant_engines.items():
        batched = engine.run_functional(
            network, frames, activity=activities["reference"]
        )
        reference = engine.run_functional_reference(network, frames)
        assert batched.identical_to(reference), (
            f"fp64-dense diverges from run_functional_reference on {name}"
        )


def test_fp32_event_sparse_meets_documented_accuracy_bounds(
    svgg11_workload, activities
):
    network, _ = svgg11_workload
    reference_counts = _layer_spike_counts(network, activities["reference"])
    fast_counts = _layer_spike_counts(network, activities["fast"])
    for index, (reference, fast) in enumerate(zip(reference_counts, fast_counts)):
        deviation = abs(fast - reference) / max(reference, 1.0)
        assert deviation <= SPIKE_COUNT_TOLERANCE, (
            f"weighted layer {index}: spike-count deviation {deviation:.4f} "
            f"exceeds the documented {SPIKE_COUNT_TOLERANCE} bound"
        )
    agreement = float(np.mean(
        _predictions(network, activities["reference"])
        == _predictions(network, activities["fast"])
    ))
    assert agreement >= CLASSIFICATION_AGREEMENT_BOUND, (
        f"classification agreement {agreement:.3f} below the documented "
        f"{CLASSIFICATION_AGREEMENT_BOUND} bound"
    )


def test_fp32_event_sparse_costing_stays_close_on_all_variants(
    svgg11_workload, variant_engines, activities
):
    """Costed totals under the fast policy track the reference costing.

    The hardware models cost spike *activity*; under FP32 at these shapes
    spikes flip only at near-threshold coincidences, so every variant's
    total runtime/energy must stay within a few percent of the reference
    result (typically bit-equal).
    """
    network, frames = svgg11_workload
    for name, engine in variant_engines.items():
        reference = engine.run_functional(
            network, frames, activity=activities["reference"]
        )
        fast = engine.run_functional(network, frames, activity=activities["fast"])
        for attribute in ("total_runtime_s", "total_energy_j"):
            ref_value = getattr(reference, attribute)
            fast_value = getattr(fast, attribute)
            assert fast_value == pytest.approx(ref_value, rel=0.05), (
                f"{name}: {attribute} moved {fast_value} vs {ref_value} "
                f"under fp32-event_sparse"
            )


def test_policies_get_distinct_store_fingerprints_and_entries():
    from repro.eval.sweeps import functional_network
    from repro.snn.datasets import SyntheticCIFAR10
    from repro.types import TensorShape

    network = functional_network(SEED)
    frames, _ = SyntheticCIFAR10(
        seed=SEED, image_shape=TensorShape(16, 16, 3)
    ).sample(2)
    with Session() as session:
        config = session.config
        reference_print = session.functional_fingerprint(
            config, network, frames, numerics=REFERENCE
        )
        fast_print = session.functional_fingerprint(
            config, network, frames, numerics=FAST
        )
        assert reference_print != fast_print
        # Same frames, different policies: two cold computes, two entries.
        session.run_functional(network, frames)
        session.run_functional(network, frames, numerics=FAST)
        stats = session.store.stats()
        assert stats["entries"] == 2
        assert stats["hits"] == 0
        # Re-running either policy is now a pure store hit.
        session.run_functional(network, frames, numerics=FAST)
        assert session.store.stats()["hits"] == 1
