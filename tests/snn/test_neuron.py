"""Tests for the spiking neuron model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snn.neuron import LIFParameters, LIFState, lif_step


class TestLIFParameters:
    def test_defaults(self):
        params = LIFParameters()
        assert 0.0 <= params.alpha <= 1.0
        assert params.v_threshold > 0

    @pytest.mark.parametrize(
        "kwargs", [{"alpha": 1.5}, {"alpha": -0.1}, {"v_threshold": 0.0}, {"resistance": 0.0}]
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LIFParameters(**kwargs)


class TestLIFStep:
    def test_spike_fires_exactly_at_threshold(self):
        params = LIFParameters(alpha=1.0, v_threshold=1.0, v_reset=1.0)
        state = LIFState.zeros((1,))
        state, spikes = lif_step(state, np.array([1.0]), params)
        assert spikes[0]
        assert state.membrane[0] == pytest.approx(0.0)

    def test_subthreshold_accumulates(self):
        params = LIFParameters(alpha=1.0, v_threshold=1.0)
        state = LIFState.zeros((1,))
        state, spikes = lif_step(state, np.array([0.4]), params)
        assert not spikes[0]
        state, spikes = lif_step(state, np.array([0.4]), params)
        assert not spikes[0]
        state, spikes = lif_step(state, np.array([0.4]), params)
        assert spikes[0]

    def test_leak_decays_membrane(self):
        params = LIFParameters(alpha=0.5, v_threshold=10.0)
        state = LIFState(membrane=np.array([2.0]))
        state, _ = lif_step(state, np.array([0.0]), params)
        assert state.membrane[0] == pytest.approx(1.0)

    def test_soft_reset_subtracts_v_reset(self):
        params = LIFParameters(alpha=1.0, v_threshold=1.0, v_reset=1.0)
        state = LIFState.zeros((1,))
        state, spikes = lif_step(state, np.array([1.7]), params)
        assert spikes[0]
        assert state.membrane[0] == pytest.approx(0.7)

    def test_equation_matches_paper_form(self, rng):
        """v(t) = alpha*v(t-1) + r*i(t) - v_rst*s(t), s(t) = [v >= v_th]."""
        params = LIFParameters(alpha=0.9, v_threshold=0.8, v_reset=0.8, resistance=1.0)
        membrane = rng.normal(size=50)
        current = rng.normal(size=50)
        state, spikes = lif_step(LIFState(membrane=membrane.copy()), current, params)
        pre_spike = membrane * params.alpha + params.resistance * current
        expected_spikes = pre_spike >= params.v_threshold
        expected_membrane = pre_spike - params.v_reset * expected_spikes
        assert np.array_equal(spikes, expected_spikes)
        assert np.allclose(state.membrane, expected_membrane)

    def test_shape_mismatch_rejected(self):
        state = LIFState.zeros((3,))
        with pytest.raises(ValueError):
            lif_step(state, np.zeros(4), LIFParameters())

    def test_original_state_not_mutated(self):
        state = LIFState(membrane=np.array([0.5]))
        lif_step(state, np.array([1.0]), LIFParameters())
        assert state.membrane[0] == 0.5

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        current=st.floats(-5.0, 5.0),
        membrane=st.floats(-5.0, 5.0),
    )
    def test_membrane_always_below_threshold_after_update(self, alpha, current, membrane):
        """After soft reset, the membrane never exceeds v_th + |v| bound without spiking."""
        params = LIFParameters(alpha=alpha, v_threshold=1.0, v_reset=1.0)
        state, spikes = lif_step(LIFState(membrane=np.array([membrane])), np.array([current]), params)
        if not spikes[0]:
            assert state.membrane[0] < params.v_threshold
