"""The micro-batcher: grouping, coalesced execution, flush policy, scatter."""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import baseline_config, spikestream_config
from repro.serve.batcher import (
    MicroBatcher,
    functional_group_key,
    statistical_group_key,
)
from repro.serve.queue import InferenceRequest, RequestQueue
from repro.session import Session
from repro.eval.sweeps import functional_network
from repro.snn.datasets import SyntheticCIFAR10
from repro.types import TensorShape


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def small_functional_workload():
    network = functional_network(41)
    frames, _ = SyntheticCIFAR10(seed=41, image_shape=TensorShape(16, 16, 3)).sample(6)
    return network, frames


def _statistical_request(session, config, seed, batch_size=1):
    return InferenceRequest(
        mode="statistical",
        config=config,
        group_key=statistical_group_key(session, config, None, config.timesteps),
        fingerprint=session.fingerprint(config, batch_size, None, seed,
                                        config.timesteps),
        frames_count=batch_size,
        batch_size=batch_size,
        seed=seed,
        timesteps=config.timesteps,
    )


def _functional_request(session, config, network, frames):
    return InferenceRequest(
        mode="functional",
        config=config,
        group_key=functional_group_key(session, config, network, frames),
        fingerprint=session.functional_fingerprint(config, network, frames),
        frames_count=len(frames),
        network=network,
        frames=np.asarray(frames),
    )


class TestGroupKeys:
    def test_statistical_key_ignores_request_seed_and_batch(self, session):
        # The group key covers the config but NOT the per-request run
        # parameters: requests with different run-level seeds/batch sizes
        # under ONE config are exactly what the batcher coalesces.
        config = spikestream_config(batch_size=4, seed=1)
        key = statistical_group_key(session, config, None, 1)
        assert key == statistical_group_key(session, config, None, 1)
        request_a = _statistical_request(session, config, seed=11, batch_size=1)
        request_b = _statistical_request(session, config, seed=99, batch_size=3)
        assert request_a.group_key == request_b.group_key
        # Distinct requests still get distinct store fingerprints.
        assert request_a.fingerprint != request_b.fingerprint

    def test_statistical_key_separates_timesteps_and_rates(self, session):
        config = spikestream_config(batch_size=4)
        base = statistical_group_key(session, config, None, 1)
        assert statistical_group_key(session, config, None, 2) != base
        assert statistical_group_key(session, config, {"conv1": 0.4}, 1) != base

    def test_statistical_key_separates_configs(self, session):
        timesteps = 1
        assert statistical_group_key(
            session, spikestream_config(batch_size=4), None, timesteps
        ) != statistical_group_key(
            session, baseline_config(batch_size=4), None, timesteps
        )

    def test_functional_key_ignores_frame_pixels(self, session,
                                                 small_functional_workload):
        network, frames = small_functional_workload
        config = spikestream_config(batch_size=1)
        assert functional_group_key(
            session, config, network, frames[0:1]
        ) == functional_group_key(session, config, network, frames[1:2])

    def test_functional_key_separates_networks_and_dtypes(
        self, session, small_functional_workload
    ):
        network, frames = small_functional_workload
        config = spikestream_config(batch_size=1)
        base = functional_group_key(session, config, network, frames[0:1])
        other_network = functional_network(99)
        assert functional_group_key(
            session, config, other_network, frames[0:1]
        ) != base
        assert functional_group_key(
            session, config, network, frames[0:1].astype(np.float32)
        ) != base


class TestCoalescedExecution:
    def test_statistical_batch_matches_solo_runs(self, session):
        config = spikestream_config(batch_size=1, timesteps=2, seed=0)
        requests = [
            _statistical_request(session, config, seed, batch_size)
            for seed, batch_size in ((11, 1), (22, 2), (33, 1))
        ]
        batcher = MicroBatcher(session, max_batch=16)
        results = batcher.execute(requests)
        assert len(results) == 3
        for request, result in zip(requests, results):
            solo = session.engine(config).run_statistical(
                batch_size=request.batch_size, seed=request.seed, timesteps=2
            )
            assert result.identical_to(solo)

    def test_functional_batch_matches_solo_runs(self, session,
                                                small_functional_workload):
        network, frames = small_functional_workload
        config = spikestream_config(batch_size=1, timesteps=2, seed=0)
        requests = [
            _functional_request(session, config, network, frames[i:i + 2])
            for i in (0, 2, 4)
        ]
        batcher = MicroBatcher(session, max_batch=16)
        results = batcher.execute(requests)
        for request, result in zip(requests, results):
            solo = session.engine(config).run_functional(network, request.frames)
            assert result.identical_to(solo)

    def test_single_request_passthrough(self, session):
        config = spikestream_config(batch_size=2, seed=3)
        request = _statistical_request(session, config, 3, batch_size=2)
        [result] = MicroBatcher(session).execute([request])
        solo = session.engine(config).run_statistical(batch_size=2, seed=3)
        assert result.identical_to(solo)

    def test_mixed_groups_rejected(self, session):
        stream = _statistical_request(session, spikestream_config(batch_size=1), 1)
        baseline = _statistical_request(session, baseline_config(batch_size=1), 1)
        with pytest.raises(ValueError, match="incompatible"):
            MicroBatcher(session).execute([stream, baseline])

    def test_empty_batch_is_noop(self, session):
        assert MicroBatcher(session).execute([]) == []


def _flushes(batcher):
    """The batcher's flush-reason counters, by reason."""
    return {
        reason: batcher.metrics.counter(f"serve.flush.{reason}").value
        for reason in ("idle", "full", "waited", "incompatible")
    }


class TestCollectPolicy:
    def test_lone_request_flushes_at_once(self, session):
        # The queue's first admission has no predecessor, so nothing says
        # another request is coming: no 10s linger on the empty queue.
        config = spikestream_config(batch_size=1)
        queue = RequestQueue(maxsize=32)
        queue.put(_statistical_request(session, config, 5))
        batcher = MicroBatcher(session, max_batch=64, max_wait_ms=10_000)
        first = queue.pop(timeout=1)
        start = time.monotonic()
        batch = batcher.collect(queue, first)
        assert time.monotonic() - start < 1.0
        assert batch == [first]
        assert _flushes(batcher) == {
            "idle": 1, "full": 0, "waited": 0, "incompatible": 0,
        }

    def test_flush_on_max_batch(self, session):
        config = spikestream_config(batch_size=1)
        queue = RequestQueue(maxsize=32)
        requests = [_statistical_request(session, config, seed) for seed in range(6)]
        for request in requests:
            queue.put(request)
        batcher = MicroBatcher(session, max_batch=4, max_wait_ms=10_000)
        first = queue.pop(timeout=1)
        batch = batcher.collect(queue, first)
        # Flushes at the frame bound long before the 10s wait expires.
        assert [r.id for r in batch] == [r.id for r in requests[:4]]
        assert queue.depth() == 2
        assert _flushes(batcher)["full"] == 1

    def test_flush_on_max_wait(self, session):
        # Two back-to-back admissions are clustered: collecting from the
        # first takes the second, then lingers on the empty queue for the
        # whole window before flushing both.
        config = spikestream_config(batch_size=1)
        queue = RequestQueue(maxsize=32)
        requests = [_statistical_request(session, config, seed) for seed in (7, 8)]
        for request in requests:
            queue.put(request)
        batcher = MicroBatcher(session, max_batch=64, max_wait_ms=30)
        first = queue.pop(timeout=1)
        start = time.monotonic()
        batch = batcher.collect(queue, first)
        elapsed = time.monotonic() - start
        assert batch == requests
        # Waited out the window, but no longer than the wait bound (plus slack).
        assert 0.03 <= elapsed < 1.0
        assert _flushes(batcher) == {
            "idle": 0, "full": 0, "waited": 1, "incompatible": 0,
        }

    def test_flush_on_incompatible_head(self, session):
        stream_config = spikestream_config(batch_size=1)
        base_config = baseline_config(batch_size=1)
        queue = RequestQueue(maxsize=32)
        compatible = [_statistical_request(session, stream_config, s) for s in (1, 2)]
        other = _statistical_request(session, base_config, 3)
        queue.put(compatible[0])
        queue.put(compatible[1])
        queue.put(other)
        batcher = MicroBatcher(session, max_batch=64, max_wait_ms=10_000)
        first = queue.pop(timeout=1)
        start = time.monotonic()
        batch = batcher.collect(queue, first)
        # Incompatible head flushes immediately — no 10s stall.
        assert time.monotonic() - start < 1.0
        assert [r.id for r in batch] == [r.id for r in compatible]
        assert queue.pop(timeout=0.1) is other
        assert _flushes(batcher)["incompatible"] == 1

    def test_multi_frame_request_may_overshoot_bound(self, session):
        config = spikestream_config(batch_size=1)
        queue = RequestQueue(maxsize=32)
        queue.put(_statistical_request(session, config, 1, batch_size=3))
        batcher = MicroBatcher(session, max_batch=4, max_wait_ms=50)
        first = queue.pop(timeout=1)
        big = _statistical_request(session, config, 2, batch_size=3)
        queue.put(big)
        batch = batcher.collect(queue, first)
        # Requests are never split: the second one rides along (3+3 > 4).
        assert len(batch) == 2
        assert sum(r.frames_count for r in batch) == 6

    def test_knob_validation(self, session):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(session, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            MicroBatcher(session, max_wait_ms=-1)


class TestScatterProperty:
    """Whatever shares a coalesced batch, each scattered result is the
    request's solo run bit for bit — including the ``[1]`` + ``[rest]``
    splits a burst's lone first batch produces."""

    @settings(max_examples=25, deadline=None)
    @given(requests=st.lists(
        st.tuples(st.integers(1, 4), st.integers(0, 2**31 - 1)),
        min_size=1, max_size=4,
    ))
    @example(requests=[(1, 11), (3, 22), (2, 11)])
    def test_statistical_scatter_matches_solo_runs(self, session, requests):
        config = spikestream_config(batch_size=1, timesteps=2, seed=0)
        batch = [
            _statistical_request(session, config, seed, batch_size)
            for batch_size, seed in requests
        ]
        results = MicroBatcher(session, max_batch=16).execute(batch)
        assert len(results) == len(batch)
        for (batch_size, seed), result in zip(requests, results):
            solo = session.run_inference(config, batch_size=batch_size, seed=seed)
            assert result.identical_to(solo), (batch_size, seed)

    @settings(max_examples=20, deadline=None)
    @given(picks=st.lists(
        st.lists(st.integers(0, 5), min_size=1, max_size=4),
        min_size=1, max_size=3,
    ))
    @example(picks=[[0], [1, 2, 3, 4, 5]])
    def test_functional_scatter_matches_solo_runs(
        self, session, small_functional_workload, picks
    ):
        network, frames = small_functional_workload
        config = spikestream_config(batch_size=1, timesteps=2, seed=0)
        batch = [
            _functional_request(session, config, network, frames[indices])
            for indices in picks
        ]
        results = MicroBatcher(session, max_batch=16).execute(batch)
        assert len(results) == len(batch)
        for request, result in zip(batch, results):
            solo = session.run_functional(network, request.frames, config=config)
            assert result.identical_to(solo)


class TestFrameSlice:
    def test_slice_bounds_checked(self, session):
        config = spikestream_config(batch_size=2, seed=5)
        result = session.engine(config).run_statistical(batch_size=2, seed=5)
        with pytest.raises(ValueError, match="out of range"):
            result.layers[0].frame_slice(0, 3)
        with pytest.raises(ValueError, match="out of range"):
            result.layers[0].frame_slice(1, 1)

    def test_slices_are_copies(self, session):
        config = spikestream_config(batch_size=2, seed=5)
        result = session.engine(config).run_statistical(batch_size=2, seed=5)
        part = result.frame_slice(0, 1)
        part.layers[0].cycles[0] = -1.0
        assert result.layers[0].cycles[0] != -1.0
