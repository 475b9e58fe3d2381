"""Tests for synthetic datasets and activity statistics."""

import numpy as np
import pytest

from repro.snn.datasets import (
    SyntheticCIFAR10,
    synthetic_compressed_ifmap,
    synthetic_layer_activity,
)
from repro.snn.svgg11 import SVGG11_LAYER_FIRING_RATES
from repro.types import TensorShape


class TestSyntheticCIFAR10:
    def test_sample_shapes_and_range(self):
        images, labels = SyntheticCIFAR10(seed=1).sample(3)
        assert images.shape == (3, 32, 32, 3)
        assert labels.shape == (3,)
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert np.all((labels >= 0) & (labels < 10))

    def test_deterministic_for_fixed_seed(self):
        a, _ = SyntheticCIFAR10(seed=5).sample(2)
        b, _ = SyntheticCIFAR10(seed=5).sample(2)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a, _ = SyntheticCIFAR10(seed=5).sample(1)
        b, _ = SyntheticCIFAR10(seed=6).sample(1)
        assert not np.allclose(a, b)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            SyntheticCIFAR10().sample(0)


class TestSyntheticActivity:
    def test_compressed_ifmap_matches_requested_rate(self, rng):
        shape = TensorShape(16, 16, 64)
        compressed = synthetic_compressed_ifmap(shape, 0.3, rng)
        assert compressed.shape == shape
        assert compressed.firing_rate == pytest.approx(0.3, abs=0.05)

    def test_rate_bounds_checked(self, rng):
        with pytest.raises(ValueError):
            synthetic_compressed_ifmap(TensorShape(4, 4, 4), 1.5, rng)

    def test_layer_activity_structure(self):
        batch = synthetic_layer_activity(batch_size=2, layers=["conv2", "fc1"], seed=3)
        assert len(batch) == 2
        names = [sample.name for sample in batch[0]]
        assert names == ["conv2", "fc1"]
        conv_sample = batch[0][0]
        assert conv_sample.compressed_input is not None
        assert conv_sample.compressed_input.shape == conv_sample.padded_input_shape
        fc_sample = batch[0][1]
        assert fc_sample.compressed_vector is not None
        assert fc_sample.compressed_vector.length == fc_sample.input_shape.numel

    def test_layer_activity_padding_ring_is_empty(self):
        batch = synthetic_layer_activity(batch_size=1, layers=["conv5"], seed=0)
        compressed = batch[0][0].compressed_input
        counts = compressed.spike_counts()
        assert counts[0, :].sum() == 0
        assert counts[-1, :].sum() == 0
        assert counts[:, 0].sum() == 0
        assert counts[:, -1].sum() == 0

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown layer"):
            synthetic_layer_activity(batch_size=1, layers=["conv99"])

    def test_rates_follow_profile(self):
        batch = synthetic_layer_activity(batch_size=1, layers=["conv3"], seed=1)
        sample = batch[0][0]
        assert sample.firing_rate == SVGG11_LAYER_FIRING_RATES["conv3"]
