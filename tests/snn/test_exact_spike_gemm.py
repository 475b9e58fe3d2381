"""The exact float32 route of spike-input layers.

A spike-input layer whose float32 weights sit on the ``2**-16`` grid, with
every output channel's sum of ``|w|`` below ``2**8``, runs its GEMMs in
float32: every partial sum then fits in 24 bits, so the products are exact
in any order and equal the fp64 per-frame oracle byte for byte.  These tests
pin the eligibility check with literal constants (so a looser grid or a
dropped bound fails them), drive random geometries through both sides of
the bound, and check the full S-VGG11 against the per-frame reference.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config import spikestream_config
from repro.core.pipeline import SpikeStreamInference
from repro.eval.sweeps import functional_network
from repro.session import functional_svgg11_setup
from repro.snn.layers import Flatten, SpikingConv2d, SpikingLinear
from repro.snn.network import SpikingNetwork
from repro.snn.neuron import LIFParameters
from repro.snn.numerics import exact_in_float32
from repro.snn.reference import conv2d_hwc, conv2d_hwc_batch, linear, linear_batch
from repro.types import TensorShape

GRID = 2.0 ** -16
BOUND = 2.0 ** 8
#: The largest channel sum the bound admits, in grid steps.
MAX_STEPS = 2 ** 24 - 1


def _grid_weights(rng, fan_in, channels, big_channel_steps):
    """float32 grid weights ``(fan_in, channels)``: channel 0's ``|w|`` sum
    to ``big_channel_steps`` grid steps, the others are small."""
    steps = rng.integers(-(2 ** 12), 2 ** 12, size=(fan_in, channels))
    big = rng.multinomial(big_channel_steps, np.full(fan_in, 1.0 / fan_in))
    steps[:, 0] = big * rng.choice([-1, 1], size=fan_in)
    return (steps * GRID).astype(np.float32)


def _one_layer_network(kind, geometry, weights):
    """A network of one spike-input layer with ``weights`` bound as given."""
    height, width, c_in, kernel, stride, padding = geometry
    shape = TensorShape(height, width, c_in)
    if kind == "conv":
        layer = SpikingConv2d(c_in, weights.shape[-1], kernel_size=kernel, stride=stride,
                              padding=padding, name="conv")
        layers = [layer]
        weights = weights.reshape(layer.weight_shape).copy()
    else:
        layer = SpikingLinear(height * width * c_in, weights.shape[-1], name="fc")
        layers = [Flatten(), layer]
    layer.weights = weights  # bound as is: a float32 array stays float32
    return SpikingNetwork(layers, input_shape=shape), layers.index(layer)


def _oracle_currents(network, index, frame):
    layer = network.layers[index]
    if isinstance(layer, SpikingConv2d):
        return conv2d_hwc(frame, layer.weights, stride=layer.stride, padding=layer.padding)
    return linear(frame, layer.weights)


def _batched_currents(network, index, frames):
    """The float32 route's currents, cast to the fp64 membrane's dtype."""
    layer = network.layers[index]
    weights = layer.weights
    if isinstance(layer, SpikingConv2d):
        out = conv2d_hwc_batch(frames, weights, stride=layer.stride,
                               padding=layer.padding, dtype=weights.dtype)
    else:
        out = linear_batch(frames, weights, dtype=weights.dtype)
    return out.astype(np.float64)


def _assert_pass_matches_oracle(network, index, frames, timesteps):
    """Spikes of the batched pass equal the per-frame oracle's, byte for
    byte, with the threshold set to an exact current so one ulp would flip
    a spike."""
    layer = network.layers[index]
    currents = _oracle_currents(network, index, frames[0])
    positive = currents[currents > 0]
    threshold = float(np.median(positive)) if positive.size else 1.0
    layer.lif = LIFParameters(alpha=0.9, v_threshold=threshold)
    activity = network.forward_batch(frames, timesteps=timesteps)
    for frame_index, frame in enumerate(frames):
        reference = network.forward(frame, timesteps=timesteps)
        got = activity.frame_activity(frame_index).records
        assert len(got) == len(reference.records)
        for batched, expected in zip(got, reference.records):
            assert batched.output_spikes.tobytes() == expected.output_spikes.tobytes()


_GEOMETRY = st.tuples(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 4),  # height, width, C_in
    st.integers(1, 3), st.integers(1, 2), st.integers(0, 1),  # kernel, stride, padding
)


def _fan_in(kind, geometry):
    height, width, c_in, kernel, _, _ = geometry
    return kernel * kernel * c_in if kind == "conv" else height * width * c_in


def _valid(geometry):
    height, width, _, kernel, _, padding = geometry
    return height + 2 * padding >= kernel and width + 2 * padding >= kernel


class TestEligibility:
    def test_grid_weights_under_the_bound_are_exact(self):
        rng = np.random.default_rng(0)
        weights = _grid_weights(rng, 9, 4, MAX_STEPS)
        assert float(np.abs(weights[:, 0].astype(np.float64)).sum()) == BOUND - GRID
        assert exact_in_float32(weights)

    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, MAX_STEPS + 2])
    def test_a_grid_step_over_the_bound_is_not(self, steps):
        weights = _grid_weights(np.random.default_rng(0), 9, 4, steps)
        assert not exact_in_float32(weights)

    @pytest.mark.parametrize("offset", [2.0 ** -17, 2.0 ** -20, 2.0 ** -24])
    def test_one_weight_off_the_grid_is_not(self, offset):
        weights = _grid_weights(np.random.default_rng(0), 9, 4, 1000)
        weights[3, 2] = np.float32(weights[3, 2] + offset)
        assert weights[3, 2] % GRID != 0
        assert not exact_in_float32(weights)

    def test_initialize_keeps_a_draw_over_the_bound_as_float64(self):
        layer = SpikingLinear(64, 3)
        layer.initialize(np.random.default_rng(0), scale=8.0)  # sums near 400
        assert layer.weights.dtype == np.float64
        assert np.all(layer.weights % GRID == 0)
        layer.initialize(np.random.default_rng(0), scale=1.0)  # sums near 50
        assert layer.weights.dtype == np.float32
        assert exact_in_float32(layer.weights)

    def test_initialize_rounds_spike_layers_of_the_same_draw(self):
        network = functional_network(3)  # conv1 encodes; conv2 and fc1 read spikes
        rng = np.random.default_rng(3)
        for index in network.weighted_layers:
            layer = network.layers[index]
            fan_in = int(np.prod(layer.weights.shape[:-1]))
            draw = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=layer.weights.shape)
            if getattr(layer, "encodes_input", False):
                assert layer.weights.dtype == np.float64
                assert np.array_equal(layer.weights, draw)
            else:
                assert layer.weights.dtype == np.float32
                assert np.all(np.abs(layer.weights - draw) <= GRID / 2)
                assert exact_in_float32(layer.weights)

    def test_float64_and_non_finite_weights_are_not(self):
        weights = _grid_weights(np.random.default_rng(0), 9, 4, 1000)
        assert not exact_in_float32(weights.astype(np.float64))
        for bad in (np.nan, np.inf):
            spoiled = weights.copy()
            spoiled[0, 1] = bad
            assert not exact_in_float32(spoiled)


class TestExactRoute:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["conv", "fc"]), geometry=_GEOMETRY,
           c_out=st.integers(1, 5), batch=st.integers(1, 5), timesteps=st.integers(1, 3),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_grid_weights_just_under_the_bound_match_the_oracle(
        self, kind, geometry, c_out, batch, timesteps, density, seed
    ):
        assume(_valid(geometry))
        rng = np.random.default_rng(seed)
        weights = _grid_weights(rng, _fan_in(kind, geometry), c_out, MAX_STEPS)
        network, index = _one_layer_network(kind, geometry, weights)
        height, width, c_in = geometry[:3]
        frames = rng.random((batch, height, width, c_in)) < density
        assert network._exact_in_float32(index, network.layers[index].weights)
        assert network._gemm_weights(index, network.layers[index], frames,
                                     np.dtype(np.float64)).dtype == np.float32
        batched = _batched_currents(network, index, frames)
        for frame_index in range(batch):
            expected = _oracle_currents(network, index, frames[frame_index])
            assert batched[frame_index].tobytes() == expected.reshape(
                batched[frame_index].shape).tobytes()
        _assert_pass_matches_oracle(network, index, frames, timesteps)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["conv", "fc"]), geometry=_GEOMETRY,
           c_out=st.integers(1, 5), batch=st.integers(1, 5), timesteps=st.integers(1, 3),
           off_grid=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_over_the_bound_or_off_the_grid_takes_fp64(
        self, kind, geometry, c_out, batch, timesteps, off_grid, seed
    ):
        assume(_valid(geometry))
        rng = np.random.default_rng(seed)
        fan_in = _fan_in(kind, geometry)
        weights = _grid_weights(rng, fan_in, c_out, 1000 if off_grid else MAX_STEPS + 1)
        if off_grid:
            weights[rng.integers(fan_in), rng.integers(c_out)] += np.float32(2.0 ** -20)
        network, index = _one_layer_network(kind, geometry, weights)
        height, width, c_in = geometry[:3]
        frames = rng.random((batch, height, width, c_in)) < 0.5
        assert not network._exact_in_float32(index, network.layers[index].weights)
        assert network._gemm_weights(index, network.layers[index], frames,
                                     np.dtype(np.float64)).dtype == np.float64
        _assert_pass_matches_oracle(network, index, frames, timesteps)

    def test_real_valued_inputs_take_fp64(self):
        weights = _grid_weights(np.random.default_rng(1), 3 * 3 * 2, 3, 1000)
        network, index = _one_layer_network("conv", (5, 5, 2, 3, 1, 1), weights)
        frames = np.random.default_rng(2).random((2, 5, 5, 2))
        layer = network.layers[index]
        assert network._gemm_weights(index, layer, frames, np.dtype(np.float64)).dtype \
            == np.float64

    def test_a_memoised_verdict_cannot_go_stale(self):
        weights = _grid_weights(np.random.default_rng(3), 3 * 3 * 2, 3, 1000)
        network, index = _one_layer_network("conv", (5, 5, 2, 3, 1, 1), weights)
        frames = np.random.default_rng(4).random((2, 5, 5, 2)) < 0.5
        network.forward_batch(frames)
        layer = network.layers[index]
        assert network._exact_in_float32(index, layer.weights)
        with pytest.raises(ValueError):
            layer.weights[0, 0, 0, 0] = 2.0 ** -20
        # Rebinding is how weights change; the new array is checked afresh.
        spoiled = weights.reshape(layer.weight_shape).copy()
        spoiled[0, 0, 0, 0] = 2.0 ** -20
        layer.weights = spoiled
        assert not network._exact_in_float32(index, layer.weights)

    def test_a_view_is_checked_on_every_call(self):
        base = _grid_weights(np.random.default_rng(5), 3 * 3 * 2, 3, 1000)
        network, index = _one_layer_network("conv", (5, 5, 2, 3, 1, 1), base)
        layer = network.layers[index]
        layer.weights = base.reshape(layer.weight_shape)[:]
        assert layer.weights.base is not None
        assert network._exact_in_float32(index, layer.weights)
        base[0, 0] = 2.0 ** -20  # the caller's buffer stays writable...
        assert not network._exact_in_float32(index, layer.weights)  # ...and is seen

    def test_explicit_weights_stay_float64(self):
        conv = SpikingConv2d(2, 3, weights=np.zeros((3, 3, 2, 3), dtype=np.float32))
        fc = SpikingLinear(4, 2, weights=np.zeros((4, 2), dtype=np.float32))
        assert conv.weights.dtype == np.float64 and fc.weights.dtype == np.float64


@pytest.fixture(scope="module")
def svgg11():
    """The functional S-VGG11 and 16 frames, built once."""
    return functional_svgg11_setup(batch_size=16, seed=2025)


class TestSvgg11:
    def test_every_spike_layer_is_exact_in_float32(self, svgg11):
        network, _ = svgg11
        for index in network.weighted_layers:
            layer = network.layers[index]
            if layer.name == "conv1":
                assert layer.weights.dtype == np.float64
            else:
                assert exact_in_float32(layer.weights), layer.name

    @pytest.mark.parametrize("timesteps", [1, 4])
    def test_run_functional_matches_the_reference(self, svgg11, timesteps):
        network, frames = svgg11
        engine = SpikeStreamInference(spikestream_config(timesteps=timesteps, seed=3))
        if timesteps == 1:
            # The per-frame reference of 16 frames covers batches 1 and 3
            # as its first rows: each frame's rows are its own.
            reference = engine.run_functional_reference(network, frames)
            for batch in (1, 3, 16):
                batched = engine.run_functional(network, frames[:batch])
                assert batched.identical_to(reference.frame_slice(0, batch))
        else:
            reference = engine.run_functional_reference(network, frames[:3])
            assert engine.run_functional(network, frames[:3]).identical_to(reference)
        # The float32 arrays are the spike layers' only weights.
        assert not getattr(network, "_weight_cast_cache", None)
