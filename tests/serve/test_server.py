"""The inference server: concurrency, caching, backpressure, drain, telemetry."""

import time

import numpy as np
import pytest

from repro.config import baseline_config, spikestream_config
from repro.obs import Tracer
from repro.serve import (
    DeadlineExceeded,
    InferenceServer,
    LoadGenerator,
    QueueFull,
    ServerClosed,
)
from repro.session import Session
from repro.eval.sweeps import functional_network
from repro.snn.datasets import SyntheticCIFAR10
from repro.types import TensorShape


@pytest.fixture
def config():
    return spikestream_config(batch_size=1, timesteps=1, seed=17)


class TestConcurrentEquivalence:
    def test_concurrent_statistical_requests_match_direct_calls(self, config):
        session = Session()
        with InferenceServer(session=session, workers=2, max_batch=8,
                             max_wait_ms=20) as server:
            futures = {
                seed: server.submit_statistical(config=config, batch_size=1,
                                                seed=seed)
                for seed in range(40, 56)
            }
            served = {seed: future.result(timeout=60)
                      for seed, future in futures.items()}
        reference = Session()
        for seed, result in served.items():
            direct = reference.run_inference(config, batch_size=1, seed=seed)
            assert result.identical_to(direct), f"seed {seed} diverged"

    def test_mixed_modes_and_configs_interleaved(self, config):
        network = functional_network(17)
        frames, _ = SyntheticCIFAR10(
            seed=17, image_shape=TensorShape(16, 16, 3)
        ).sample(4)
        other_config = baseline_config(batch_size=1, timesteps=1, seed=17)
        with InferenceServer(workers=2, max_batch=8, max_wait_ms=20) as server:
            functional = [
                server.submit_functional(network, frames[i:i + 1], config=config)
                for i in range(4)
            ]
            streaming = [
                server.submit_statistical(config=config, seed=s) for s in (1, 2)
            ]
            baseline = [
                server.submit_statistical(config=other_config, seed=s)
                for s in (1, 2)
            ]
            all_results = [f.result(timeout=60)
                           for f in functional + streaming + baseline]
        reference = Session()
        for i in range(4):
            assert all_results[i].identical_to(
                reference.run_functional(network, frames[i:i + 1], config=config)
            )
        assert all_results[4].identical_to(
            reference.run_inference(config, batch_size=1, seed=1)
        )
        assert all_results[6].identical_to(
            reference.run_inference(other_config, batch_size=1, seed=1)
        )


class TestStoreIntegration:
    def test_repeat_request_short_circuits_queue(self, config):
        with InferenceServer(workers=1, max_wait_ms=5) as server:
            first = server.submit_statistical(config=config, seed=9).result(60)
            # Same fingerprint again: served straight from the store.
            again = server.submit_statistical(config=config, seed=9)
            assert again.done()
            assert again.result(0).identical_to(first)
            stats = server.stats()
            assert stats["serve.store_short_circuits"] == 1
            assert stats["serve.store"]["hits"] >= 1

    def test_server_and_session_share_one_store(self, config):
        session = Session()
        direct = session.run_inference(config, batch_size=1, seed=12)
        with InferenceServer(session=session, workers=1) as server:
            future = server.submit_statistical(config=config, seed=12)
            assert future.done()  # direct call already populated the store
            assert future.result(0).identical_to(direct)


class TestBackpressure:
    def test_queue_full_rejects_and_counts(self, config):
        session = Session()
        server = InferenceServer(session=session, workers=1, max_batch=1,
                                 max_wait_ms=0, max_queue=2)
        # Stall the single worker with a slow-ish first request, then flood.
        rejected = 0
        futures = []
        for seed in range(30):
            try:
                futures.append(
                    server.submit_statistical(config=config, seed=100 + seed)
                )
            except QueueFull:
                rejected += 1
        assert rejected > 0, "queue bound never hit"
        assert server.stats()["serve.rejected"] == rejected
        # Accepted requests all complete despite the flood.
        for future in futures:
            future.result(timeout=120)
        server.close()

    def test_deadline_expires_queued_request(self, config):
        session = Session()
        with InferenceServer(session=session, workers=1, max_batch=1,
                             max_wait_ms=0, max_queue=64) as server:
            blocker = server.submit_statistical(config=config, seed=1)
            doomed = server.submit_statistical(
                config=config, seed=2, deadline_s=0.0
            )
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=60)
            blocker.result(timeout=60)
            assert server.stats()["serve.expired"] >= 1


class TestLifecycle:
    def test_graceful_drain_loses_no_accepted_request(self, config):
        session = Session()
        server = InferenceServer(session=session, workers=2, max_batch=4,
                                 max_wait_ms=5, max_queue=64)
        futures = [server.submit_statistical(config=config, seed=200 + s)
                   for s in range(12)]
        server.close()  # drain=True: every accepted request must resolve
        for future in futures:
            assert future.result(timeout=0) is not None
        assert server.stats()["serve.completed"] + \
            server.stats()["serve.store_short_circuits"] >= 12

    def test_close_is_idempotent_and_rejects_new_work(self, config):
        server = InferenceServer(workers=1)
        server.close()
        server.close()
        assert server.closed
        with pytest.raises(ServerClosed):
            server.submit_statistical(config=config, seed=1)

    def test_non_graceful_close_fails_queued_requests(self, config):
        session = Session()
        server = InferenceServer(session=session, workers=1, max_batch=1,
                                 max_wait_ms=0, max_queue=64)
        futures = [server.submit_statistical(config=config, seed=300 + s)
                   for s in range(8)]
        server.close(drain=False)
        outcomes = {"done": 0, "cancelled": 0}
        for future in futures:
            try:
                future.result(timeout=0)
                outcomes["done"] += 1
            except ServerClosed:
                outcomes["cancelled"] += 1
        assert outcomes["done"] + outcomes["cancelled"] == 8

    def test_owned_session_closed_with_server(self):
        server = InferenceServer(workers=1)
        session = server.session
        server.close()
        # Closing the owned session twice stays safe (idempotent close).
        session.close()

    def test_injected_session_stays_open(self, config):
        session = Session()
        with InferenceServer(session=session, workers=1) as server:
            server.submit_statistical(config=config, seed=3).result(60)
        # The caller's session keeps serving after the server is gone.
        assert session.run_inference(config, batch_size=1, seed=3) is not None

    def test_cancelled_future_does_not_kill_the_worker(self, config):
        # A caller may cancel() a queued request; delivery is dropped but
        # the worker must survive and serve everything else in the batch.
        with InferenceServer(workers=1, max_batch=1, max_wait_ms=0,
                             max_queue=64) as server:
            futures = [server.submit_statistical(config=config, seed=400 + s)
                       for s in range(6)]
            cancelled = futures[3].cancel()
            for index, future in enumerate(futures):
                if index == 3:
                    continue
                assert future.result(timeout=120) is not None
        if cancelled:  # cancel() can race the worker picking it up
            assert futures[3].cancelled()
        else:
            assert futures[3].result(timeout=0) is not None

    def test_worker_error_propagates_to_future(self, config):
        with InferenceServer(workers=1, max_wait_ms=1) as server:
            future = server.submit_functional(
                functional_network(3),
                np.zeros((1, 4, 4, 3)),  # wrong geometry for the network
                config=config,
            )
            with pytest.raises(Exception):
                future.result(timeout=60)
            assert server.stats()["serve.errors"] >= 1


class TestLoadGenerator:
    def test_burst_and_paced_loads_complete(self, config):
        session = Session()
        with InferenceServer(session=session, workers=2, max_batch=8,
                             max_wait_ms=10, max_queue=64) as server:
            counter = iter(range(10_000))

            def submit(index):
                return server.submit_statistical(
                    config=config, seed=1000 + next(counter)
                )

            burst = LoadGenerator(submit, requests=8).run(timeout_s=120)
            paced = LoadGenerator(
                submit, requests=4, arrival_rate_hz=200.0
            ).run(timeout_s=120)
        assert burst.completed == 8
        assert paced.completed == 4
        assert burst.throughput_rps > 0
        report = paced.to_dict()
        assert report["latency_p50_ms"] <= report["latency_p99_ms"]

    def test_validation(self):
        with pytest.raises(ValueError, match="requests"):
            LoadGenerator(lambda i: None, requests=0)
        with pytest.raises(ValueError, match="arrival_rate"):
            LoadGenerator(lambda i: None, requests=1, arrival_rate_hz=0.0)


class TestFlushPolicy:
    def test_lone_request_skips_the_window(self, config):
        # A 10s window, but nothing else is coming: the request must not
        # wait it out.
        tracer = Tracer(enabled=True)
        with InferenceServer(workers=1, max_wait_ms=10_000,
                             tracer=tracer) as server:
            result = server.submit_statistical(config=config, seed=23).result(5)
            assert server.stats()["serve.flush.idle"] == 1
        [trace] = tracer.completed()
        [assembly] = [span for span in trace["spans"]
                      if span["name"] == "batch_assembly"]
        assert assembly["attrs"]["flush"] == "idle"
        with Session() as reference:
            assert result.identical_to(
                reference.run_inference(config, batch_size=1, seed=23)
            )

    def test_burst_still_coalesces(self, config):
        # Only the burst's first request may go alone; the others fill one
        # batch up to max_batch.  Either way there are at most two passes.
        seeds = range(60, 68)
        server = InferenceServer(workers=1, max_batch=7, max_wait_ms=2_000)
        futures = [server.submit_statistical(config=config, seed=seed)
                   for seed in seeds]
        # The graceful close executes every request and cuts a last batch's
        # linger short: a closed queue gets no more arrivals.
        server.close()
        results = [future.result(timeout=60) for future in futures]
        assert server.stats()["serve.batches"] <= 2
        with Session() as reference:
            for seed, result in zip(seeds, results):
                direct = reference.run_inference(config, batch_size=1, seed=seed)
                assert result.identical_to(direct), f"seed {seed} diverged"


class TestEmptyRequests:
    """A request for zero frames is refused at submission: it never joins a
    micro-batch, so the requests coalesced around it are served as usual."""

    def test_zero_batch_statistical_refused_neighbours_served(self, config):
        seeds = range(80, 92)
        server = InferenceServer(workers=1, max_batch=16, max_wait_ms=2_000)
        futures = [server.submit_statistical(config=config, seed=seed)
                   for seed in seeds[:6]]
        with pytest.raises(ValueError, match="batch_size must be positive"):
            server.submit_statistical(config=config, batch_size=0, seed=99)
        with pytest.raises(ValueError, match="timesteps must be positive"):
            server.submit_statistical(config=config, timesteps=0, seed=99)
        futures += [server.submit_statistical(config=config, seed=seed)
                    for seed in seeds[6:]]
        server.close()
        results = [future.result(timeout=60) for future in futures]
        with Session() as reference:
            for seed, result in zip(seeds, results):
                direct = reference.run_inference(config, batch_size=1, seed=seed)
                assert result.identical_to(direct), f"seed {seed} diverged"

    def test_zero_frame_functional_refused_neighbours_served(self, config):
        network = functional_network(17)
        frames, _ = SyntheticCIFAR10(
            seed=17, image_shape=TensorShape(16, 16, 3)
        ).sample(4)
        server = InferenceServer(workers=1, max_batch=16, max_wait_ms=2_000)
        futures = [server.submit_functional(network, frames[i:i + 1], config=config)
                   for i in range(2)]
        with pytest.raises(ValueError, match="at least one frame"):
            server.submit_functional(network, frames[2:2], config=config)
        futures += [server.submit_functional(network, frames[i:i + 1], config=config)
                    for i in range(2, 4)]
        server.close()
        results = [future.result(timeout=60) for future in futures]
        with Session() as reference:
            for i, result in enumerate(results):
                direct = reference.run_functional(network, frames[i:i + 1], config=config)
                assert result.identical_to(direct), f"frame {i} diverged"


class TestTelemetry:
    def test_snapshot_has_the_announced_surface(self, config):
        with InferenceServer(workers=1, max_wait_ms=5) as server:
            server.submit_statistical(config=config, seed=77).result(60)
            snapshot = server.stats()
        assert snapshot["serve.requests"] == 1
        assert snapshot["serve.completed"] == 1
        latency = snapshot["serve.latency_ms"]
        assert {"p50", "p95", "p99", "count"} <= set(latency)
        assert {"depth", "bound"} <= set(snapshot["serve.queue"])
        assert {"hits", "misses", "hit_rate", "entries"} <= set(
            snapshot["serve.store"]
        )
        assert snapshot["serve.batch_frames"]["count"] >= 1
        # Every flush reason is declared; the one lone request flushed idle.
        assert {
            reason: snapshot[f"serve.flush.{reason}"]
            for reason in ("idle", "full", "waited", "incompatible")
        } == {"idle": 1, "full": 0, "waited": 0, "incompatible": 0}

    def test_profiled_functional_request_times_forward_and_costing_per_layer(
        self, config
    ):
        network = functional_network(17)
        frames, _ = SyntheticCIFAR10(
            seed=17, image_shape=TensorShape(16, 16, 3)
        ).sample(1)
        tracer = Tracer(enabled=True, profile_layers=True)
        with InferenceServer(workers=1, tracer=tracer) as server:
            server.submit_functional(network, frames, config=config).result(60)
        [trace] = tracer.completed()
        [engine] = [s for s in trace["spans"] if s["name"] == "engine_pass"]
        children = [s for s in trace["spans"] if s["parent_id"] == engine["span_id"]]
        forward = [s["name"] for s in children if s["name"].startswith("forward:")]
        costing = [s["name"] for s in children if s["name"].startswith("layer:")]
        assert forward == [f"forward:{layer.name}" for layer in network.layers]
        assert costing == [
            f"layer:{network.layers[i].name}" for i in network.weighted_layers
        ]
        for span in children:
            assert engine["start"] <= span["start"] <= span["end"] <= engine["end"]

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            InferenceServer(workers=0)
