"""Tests for surrogate-gradient training."""

import numpy as np
import pytest

from repro.snn.layers import SpikingLinear
from repro.snn.neuron import LIFParameters
from repro.snn.training import (
    SurrogateGradientTrainer,
    TrainingConfig,
    make_two_moons,
    surrogate_gradient,
)


class TestSurrogateGradient:
    def test_peak_at_threshold(self):
        lif = LIFParameters(v_threshold=1.0)
        grads = surrogate_gradient(np.array([0.0, 1.0, 2.0]), lif)
        assert grads[1] == pytest.approx(1.0)
        assert grads[0] < grads[1] and grads[2] < grads[1]

    def test_symmetric_around_threshold(self):
        lif = LIFParameters(v_threshold=0.5)
        grads = surrogate_gradient(np.array([0.3, 0.7]), lif)
        assert grads[0] == pytest.approx(grads[1])

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            surrogate_gradient(np.zeros(3), LIFParameters(), beta=0.0)


class TestTrainer:
    def _layers(self, hidden=16):
        lif = LIFParameters(alpha=1.0, v_threshold=0.5)
        return [
            SpikingLinear(4, hidden, lif=lif, name="hidden"),
            SpikingLinear(hidden, 2, lif=lif, name="out", is_output=True),
        ]

    def test_layer_dimension_mismatch_rejected(self):
        lif = LIFParameters()
        with pytest.raises(ValueError, match="does not match"):
            SurrogateGradientTrainer([SpikingLinear(4, 8, lif=lif), SpikingLinear(6, 2, lif=lif)])

    def test_training_improves_accuracy(self):
        inputs, labels = make_two_moons(samples=200, seed=1)
        trainer = SurrogateGradientTrainer(
            self._layers(), TrainingConfig(learning_rate=0.1, epochs=30, seed=2)
        )
        before = trainer.accuracy(inputs, labels)
        history = trainer.fit(inputs, labels)
        after = trainer.accuracy(inputs, labels)
        assert len(history.loss) == 30
        assert after >= before
        assert history.final_accuracy > 0.8

    def test_loss_decreases(self):
        inputs, labels = make_two_moons(samples=120, seed=3)
        trainer = SurrogateGradientTrainer(
            self._layers(8), TrainingConfig(learning_rate=0.05, epochs=15, seed=4)
        )
        history = trainer.fit(inputs, labels)
        assert history.loss[-1] < history.loss[0]

    def test_predict_shape_and_range(self):
        inputs, _ = make_two_moons(samples=20, seed=5)
        trainer = SurrogateGradientTrainer(self._layers(8))
        predictions = trainer.predict(inputs)
        assert predictions.shape == (20,)
        assert set(np.unique(predictions)) <= {0, 1}

    def test_input_validation(self):
        trainer = SurrogateGradientTrainer(self._layers(8))
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((4, 3)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((4, 4)), np.zeros(3, dtype=int))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)

    def test_two_moons_generator(self):
        inputs, labels = make_two_moons(samples=50, seed=0)
        assert inputs.shape == (50, 4)
        assert set(np.unique(labels)) == {0, 1}
        with pytest.raises(ValueError):
            make_two_moons(samples=1)
