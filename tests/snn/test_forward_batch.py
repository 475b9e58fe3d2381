"""Equivalence tests for the batched SNN forward pass.

``SpikingNetwork.forward_batch`` and the batched reference ops must
reproduce the per-frame golden model: the conv path, pooling, im2row and
the LIF update are bit-for-bit exact per frame; the FC current may differ
in the last ulp (one whole-batch GEMM instead of per-frame vector-matrix
products), so the recorded *spikes* — the only quantity the network
consumes and the performance model reads — are what the network-level
tests gate exactly.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.obs import layer_profiler
from repro.snn.neuron import LIFParameters, LIFState, lif_step, lif_step_batch
from repro.snn.reference import (
    avgpool2d_hwc,
    avgpool2d_hwc_batch,
    conv2d_hwc,
    conv2d_hwc_batch,
    im2row,
    im2row_batch,
    linear,
    linear_batch,
    maxpool2d_hwc,
    maxpool2d_hwc_batch,
    pad_bhwc,
)


class TestBatchedReferenceOps:
    def test_pad_bhwc_matches_per_frame(self, rng):
        x = rng.random((3, 5, 6, 2))
        padded = pad_bhwc(x, 2)
        assert padded.shape == (3, 9, 10, 2)
        assert np.array_equal(padded[1, 2:-2, 2:-2], x[1])
        assert padded[:, 0].sum() == 0.0
        with pytest.raises(ValueError):
            pad_bhwc(x, -1)

    def test_im2row_batch_matches_per_frame(self, rng):
        x = rng.random((4, 7, 8, 3))
        batched = im2row_batch(x, (3, 3), 1, 1)
        for frame in range(4):
            assert np.array_equal(batched[frame], im2row(x[frame], (3, 3), 1, 1))

    def test_im2row_batch_preserves_spike_dtype(self, rng):
        spikes = rng.random((2, 6, 6, 4)) < 0.4
        rows = im2row_batch(spikes, (3, 3), 1, 1)
        assert rows.dtype == np.bool_
        for frame in range(2):
            assert np.array_equal(rows[frame], im2row(spikes[frame], (3, 3), 1, 1))

    def test_im2row_batch_rejects_non_bhwc(self):
        with pytest.raises(ValueError):
            im2row_batch(np.ones((4, 4, 3)), (2, 2), 1, 0)

    @pytest.mark.parametrize("chunk_frames", [None, 1, 2, 64])
    def test_conv2d_batch_bit_for_bit(self, rng, monkeypatch, chunk_frames):
        """Exact per frame for any chunking, on the one-GEMM-per-chunk path."""
        import repro.snn.reference as reference

        x = rng.random((5, 4, 4, 128)) < 0.35
        weights = rng.normal(size=(3, 3, 128, 128))  # 1.2 MB: one GEMM per chunk
        assert weights.nbytes >= reference._CHUNK_GEMM_MIN_BYTES
        if chunk_frames is not None:
            # Size the chunk buffer to hold exactly ``chunk_frames`` frames'
            # im2row rows: 16 positions of K = 3 * 3 * 128 float64 values.
            monkeypatch.setattr(
                reference, "_IM2ROW_CHUNK_BYTES", chunk_frames * 16 * 1152 * 8
            )
        batched = conv2d_hwc_batch(x, weights, stride=1, padding=1)
        for frame in range(5):
            expected = conv2d_hwc(x[frame], weights, stride=1, padding=1)
            _assert_same_bytes(batched[frame], expected)

    def test_conv2d_batch_validates(self, rng):
        weights = rng.normal(size=(3, 3, 6, 10))
        with pytest.raises(ValueError):
            conv2d_hwc_batch(np.ones((8, 8, 6)), weights)
        with pytest.raises(ValueError):
            conv2d_hwc_batch(np.ones((2, 8, 8, 5)), weights)

    def test_linear_batch_last_ulp(self, rng):
        """One whole-batch GEMM: equal to per-frame products to the last ulp."""
        x = rng.random((6, 64)) < 0.2
        weights = rng.normal(size=(64, 16))
        batched = linear_batch(x, weights)
        for frame in range(6):
            expected = linear(x[frame], weights)
            np.testing.assert_allclose(batched[frame], expected, rtol=1e-12, atol=1e-14)

    def test_linear_batch_validates(self, rng):
        with pytest.raises(ValueError):
            linear_batch(np.ones((2, 8)), np.ones(8))
        with pytest.raises(ValueError):
            linear_batch(np.ones((2, 9)), np.ones((8, 4)))

    def test_pools_match_per_frame(self, rng):
        spikes = rng.random((3, 8, 8, 5)) < 0.5
        values = rng.random((3, 8, 8, 5))
        maxed = maxpool2d_hwc_batch(spikes, 2, 2)
        meaned = avgpool2d_hwc_batch(values, 2, 2)
        for frame in range(3):
            assert np.array_equal(maxed[frame], maxpool2d_hwc(spikes[frame], 2, 2))
            assert np.array_equal(meaned[frame], avgpool2d_hwc(values[frame], 2, 2))
        with pytest.raises(ValueError):
            maxpool2d_hwc_batch(spikes[0], 2, 2)
        with pytest.raises(ValueError):
            avgpool2d_hwc_batch(values[0], 2, 2)


class TestLifStepBatch:
    def test_matches_per_frame_lif_step(self, rng):
        params = LIFParameters(alpha=0.9, v_threshold=0.4)
        membranes = rng.normal(size=(5, 6, 6, 4))
        currents = rng.normal(size=(5, 6, 6, 4))
        state, spikes = lif_step_batch(LIFState(membrane=membranes), currents, params)
        for frame in range(5):
            ref_state, ref_spikes = lif_step(
                LIFState(membrane=membranes[frame]), currents[frame], params
            )
            assert np.array_equal(state.membrane[frame], ref_state.membrane)
            assert np.array_equal(spikes[frame], ref_spikes)

    def test_chunking_is_exact(self, rng, monkeypatch):
        import repro.snn.neuron as neuron

        params = LIFParameters()
        membranes = rng.normal(size=(3, 40))
        currents = rng.normal(size=(3, 40))
        full_state, full_spikes = lif_step_batch(
            LIFState(membrane=membranes), currents, params
        )
        monkeypatch.setattr(neuron, "_LIF_CHUNK_ELEMS", 7)
        tiny_state, tiny_spikes = lif_step_batch(
            LIFState(membrane=membranes), currents, params
        )
        assert np.array_equal(full_state.membrane, tiny_state.membrane)
        assert np.array_equal(full_spikes, tiny_spikes)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            lif_step_batch(LIFState.zeros((2, 4)), np.ones((2, 5)), LIFParameters())

    @pytest.mark.parametrize("step", [lif_step, lif_step_batch])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_membrane_keeps_its_dtype(self, rng, step, dtype):
        """The soft reset must not promote an fp32 membrane to float64."""
        params = LIFParameters(alpha=0.9, v_threshold=0.5)
        state = LIFState.zeros((2, 6), dtype=dtype)
        for _ in range(3):
            current = rng.normal(size=(2, 6)).astype(dtype)
            state, _ = step(state, current, params)
            assert state.membrane.dtype == dtype


def _assert_same_bytes(got, expected):
    """Equal dtype, shape and bytes: ``np.array_equal`` would ignore the
    dtype and take -0.0 for 0.0."""
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _random_map(rng, shape, dtype):
    """Spikes for ``bool``; otherwise small integers, half of them plus a
    fraction, so pooling windows hold ties for the max.  No -0.0: numpy
    leaves the sign of a tied zero maximum to its reduction order (see
    ``maxpool2d_hwc_batch``)."""
    if dtype == "bool":
        return rng.random(shape) < 0.4
    values = rng.integers(-3, 4, size=shape) + rng.random(shape) * (rng.random(shape) < 0.5)
    return values.astype(dtype)


_MAPS = dict(
    batch=st.integers(1, 4),
    height=st.integers(1, 9),
    width=st.integers(1, 9),
    channels=st.integers(1, 5),
    dtype=st.sampled_from(["bool", "float32", "float64"]),
    seed=st.integers(0, 2**32 - 1),
)


class TestBatchedOpsProperty:
    """Each batched op equals its per-frame oracle byte for byte, over map
    geometry, kernel, stride, padding and input dtype."""

    @settings(max_examples=80, deadline=None)
    @given(kh=st.integers(1, 3), kw=st.integers(1, 3), stride=st.integers(1, 3),
           padding=st.integers(0, 2), out_channels=st.integers(1, 5), **_MAPS)
    # A single output position, and fewer than four output channels: the
    # shapes where one GEMM over all frames would round differently.
    @example(kh=3, kw=3, stride=1, padding=0, out_channels=4, batch=3, height=3,
             width=3, channels=5, dtype="float64", seed=0)
    @example(kh=3, kw=1, stride=2, padding=1, out_channels=2, batch=2, height=7,
             width=5, channels=3, dtype="float64", seed=1)
    def test_im2row_and_conv_match_per_frame(
        self, kh, kw, stride, padding, out_channels, batch, height, width,
        channels, dtype, seed,
    ):
        assume(height + 2 * padding >= kh and width + 2 * padding >= kw)
        rng = np.random.default_rng(seed)
        x = _random_map(rng, (batch, height, width, channels), dtype)
        weights = rng.normal(size=(kh, kw, channels, out_channels))
        rows = im2row_batch(x, (kh, kw), stride, padding)
        currents = conv2d_hwc_batch(x, weights, stride=stride, padding=padding)
        for frame in range(batch):
            _assert_same_bytes(rows[frame], im2row(x[frame], (kh, kw), stride, padding))
            _assert_same_bytes(
                currents[frame],
                conv2d_hwc(x[frame], weights, stride=stride, padding=padding),
            )

    @settings(max_examples=60, deadline=None)
    @given(kernel=st.integers(1, 3), stride=st.integers(1, 3), **_MAPS)
    @example(kernel=3, stride=2, batch=2, height=7, width=8, channels=2,
             dtype="float32", seed=2)
    def test_maxpool_matches_per_frame(
        self, kernel, stride, batch, height, width, channels, dtype, seed
    ):
        assume(height >= kernel and width >= kernel)
        rng = np.random.default_rng(seed)
        x = _random_map(rng, (batch, height, width, channels), dtype)
        pooled = maxpool2d_hwc_batch(x, kernel, stride)
        for frame in range(batch):
            _assert_same_bytes(pooled[frame], maxpool2d_hwc(x[frame], kernel, stride))

    @settings(max_examples=40, deadline=None)
    @given(shape=st.lists(st.integers(1, 9), min_size=2, max_size=4),
           chunk=st.integers(1, 64),
           dtype=st.sampled_from(["float32", "float64"]),
           seed=st.integers(0, 2**32 - 1))
    def test_lif_step_batch_matches_per_frame(self, shape, chunk, dtype, seed):
        import repro.snn.neuron as neuron

        rng = np.random.default_rng(seed)
        params = LIFParameters(alpha=0.9, v_threshold=0.3, v_reset=0.7)
        membranes = rng.normal(size=shape).astype(dtype)
        currents = rng.normal(size=shape).astype(dtype)
        # A chunk smaller than the population puts a boundary inside it.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neuron, "_LIF_CHUNK_ELEMS", chunk)
            state, spikes = lif_step_batch(LIFState(membrane=membranes), currents, params)
        for frame in range(shape[0]):
            ref_state, ref_spikes = lif_step(
                LIFState(membrane=membranes[frame]), currents[frame], params
            )
            _assert_same_bytes(state.membrane[frame], ref_state.membrane)
            _assert_same_bytes(spikes[frame], ref_spikes)


class TestForwardBatch:
    def _assert_frame_equal(self, batch_record, frame_record):
        assert batch_record.name == frame_record.name
        assert batch_record.timestep == frame_record.timestep
        assert batch_record.kind == frame_record.kind
        for attr in ("input_spikes", "input_currents", "output_spikes"):
            batched = getattr(batch_record, attr)
            reference = getattr(frame_record, attr)
            assert (batched is None) == (reference is None)
            if batched is not None:
                assert np.array_equal(batched, reference.reshape(batched.shape))

    @pytest.mark.parametrize("timesteps", [1, 3])
    def test_matches_per_frame_forward(self, tiny_network, rng, timesteps):
        frames = rng.random((4, 8, 8, 3))
        activity = tiny_network.forward_batch(frames, timesteps=timesteps)
        assert activity.batch_size == 4
        assert len(activity.records) == timesteps * 3  # three weighted layers
        for index in range(4):
            reference = tiny_network.forward(frames[index], timesteps=timesteps)
            sliced = activity.frame_activity(index)
            assert len(sliced.records) == len(reference.records)
            for got, expected in zip(sliced.records, reference.records):
                self._assert_frame_equal(got, expected)

    def test_accepts_frame_sequences(self, tiny_network, rng):
        frames = [rng.random((8, 8, 3)) for _ in range(2)]
        activity = tiny_network.forward_batch(frames)
        assert activity.batch_size == 2

    def test_for_name_and_for_layer(self, tiny_network, rng):
        activity = tiny_network.forward_batch(rng.random((2, 8, 8, 3)), timesteps=2)
        conv2_records = activity.for_name("conv2")
        assert [record.timestep for record in conv2_records] == [0, 1]
        assert activity.for_layer(conv2_records[0].layer_index) == conv2_records

    def test_does_not_disturb_per_frame_state(self, tiny_network, rng):
        frame = rng.random((8, 8, 3))
        before = tiny_network.forward(frame, timesteps=1)
        tiny_network.forward_batch(rng.random((3, 8, 8, 3)))
        after = tiny_network.forward(frame, timesteps=1)
        for got, expected in zip(after.records, before.records):
            self._assert_frame_equal(got, expected)

    def test_predict_batch_matches_predict(self, tiny_network, rng):
        frames = rng.random((3, 8, 8, 3))
        batched = tiny_network.predict_batch(frames, timesteps=2)
        assert list(batched) == [
            tiny_network.predict(frames[index], timesteps=2) for index in range(3)
        ]

    def test_layer_profiler_times_every_layer_and_timestep(self, tiny_network, rng):
        frames = rng.random((2, 8, 8, 3))
        calls = []
        with layer_profiler(lambda *call: calls.append(call)):
            profiled = tiny_network.forward_batch(frames, timesteps=2)
        names = [layer.name for layer in tiny_network.layers]
        assert [(name, stage) for name, _, _, stage in calls] == [
            (name, "forward") for _ in range(2) for name in names
        ]
        starts = [start for _, start, _, _ in calls]
        for (_, start, end, _), next_start in zip(calls, starts[1:] + [float("inf")]):
            assert start <= end <= next_start
        # Profiling observes the pass; it never changes what it records.
        plain = tiny_network.forward_batch(frames, timesteps=2)
        for got, expected in zip(profiled.records, plain.records):
            assert got.output_spikes.tobytes() == expected.output_spikes.tobytes()

    def test_validates_inputs(self, tiny_network, rng):
        with pytest.raises(ValueError):
            tiny_network.forward_batch(rng.random((2, 8, 8, 3)), timesteps=0)
        with pytest.raises(ValueError):
            tiny_network.forward_batch(rng.random((8, 8, 3)))
        with pytest.raises(ValueError):
            tiny_network.forward_batch(np.empty((0, 8, 8, 3)))


class TestNetworkFingerprint:
    def test_stable_and_weight_sensitive(self, tiny_network):
        first = tiny_network.fingerprint()
        assert first == tiny_network.fingerprint()
        updated = tiny_network.layers[0].weights.copy()
        updated[0, 0, 0, 0] += 1.0
        # Rebinding (what initialize() and the training loop do) both
        # changes the weights and invalidates the fingerprint memo.
        tiny_network.layers[0].weights = updated
        assert tiny_network.fingerprint() != first

    def test_memoized_until_weights_rebound(self, tiny_network):
        first = tiny_network.fingerprint()
        cached = tiny_network._fingerprint_cache
        assert tiny_network.fingerprint() == first
        assert tiny_network._fingerprint_cache is cached  # served from memo
        tiny_network.initialize(np.random.default_rng(99))
        assert tiny_network.fingerprint() != first

    def test_hashed_weights_are_frozen_against_silent_mutation(self, tiny_network):
        # A stale memoized fingerprint would poison the result store, so
        # hashing freezes the arrays: in-place edits fail loudly instead.
        tiny_network.fingerprint()
        with pytest.raises(ValueError):
            tiny_network.layers[0].weights[0, 0, 0, 0] += 1.0

    def test_view_weights_are_detached_before_freezing(self, tiny_network):
        # A frozen view over a writable base would let mutations dodge the
        # memo, while freezing the base would make the caller's unrelated
        # buffer read-only; fingerprint() sidesteps both by detaching the
        # view onto an owning copy bound back to the layer.
        base = np.array(tiny_network.layers[0].weights)
        tiny_network.layers[0].weights = base[:]
        first = tiny_network.fingerprint()
        assert tiny_network.layers[0].weights.base is None
        original = base[0, 0, 0, 0]
        base[0, 0, 0, 0] = original + 1.0  # caller's buffer stays writable
        # ...and can no longer silently alter what was hashed.
        assert tiny_network.layers[0].weights[0, 0, 0, 0] == original
        assert tiny_network.fingerprint() == first

    def test_non_weight_mutation_invalidates_despite_memo(self, tiny_network):
        # Only the weight-bytes digest is memoized; layer metadata (e.g.
        # LIF parameters) is rehashed every call and must never go stale.
        from dataclasses import replace

        first = tiny_network.fingerprint()
        layer = tiny_network.layers[0]
        layer.lif = replace(layer.lif, v_threshold=layer.lif.v_threshold + 0.1)
        assert tiny_network.fingerprint() != first

    def test_architecture_sensitive(self, tiny_network, rng):
        from repro.snn.layers import SpikingLinear
        from repro.snn.network import SpikingNetwork
        from repro.types import TensorShape

        other = SpikingNetwork(
            [SpikingLinear(192, 5, name="fc1")], input_shape=TensorShape(8, 8, 3)
        )
        other.initialize(rng)
        assert other.fingerprint() != tiny_network.fingerprint()
