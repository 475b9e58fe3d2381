"""Coordinator + workers as one cluster: equivalence, replication, telemetry.

The distributed tier must be invisible to callers: every response served
through a :class:`~repro.net.coordinator.Coordinator` and its remote
workers is bit-for-bit identical to the direct
:class:`~repro.session.Session` call, results replicate cluster-wide so a
repeat request short-circuits without touching a worker, and the ``net.*``
telemetry surface is complete.
"""

import threading
import time

import pytest

from repro.config import spikestream_config
from repro.eval.sweeps import functional_network
from repro.net import Coordinator, NetWorker, ReplicatedResultStore
from repro.session import Session
from repro.snn.datasets import SyntheticCIFAR10
from repro.types import TensorShape


@pytest.fixture
def config():
    return spikestream_config(batch_size=1, timesteps=1, seed=71)


def _start_inline_worker(address, **kwargs):
    worker = NetWorker(address, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


class TestClusterEquivalence:
    def test_mixed_mode_requests_match_direct_session_calls(self, config):
        network = functional_network(71)
        frames, _ = SyntheticCIFAR10(
            seed=71, image_shape=TensorShape(16, 16, 3)
        ).sample(4)
        coordinator = Coordinator(max_batch=8, max_wait_ms=10)
        workers = []
        try:
            workers = [
                _start_inline_worker(coordinator.address, worker_id=f"w{i}")
                for i in range(2)
            ]
            assert coordinator.wait_for_workers(2, timeout=30)
            statistical = [
                coordinator.submit_statistical(config=config, seed=71 + index)
                for index in range(4)
            ]
            functional = [
                coordinator.submit_functional(
                    network, frames[index:index + 1], config=config
                )
                for index in range(4)
            ]
            stat_results = [f.result(timeout=120) for f in statistical]
            func_results = [f.result(timeout=120) for f in functional]
        finally:
            coordinator.close()
            for _worker, thread in workers:
                thread.join(timeout=10)

        with Session() as reference:
            for index, result in enumerate(stat_results):
                direct = reference.run_inference(config, batch_size=1,
                                                 seed=71 + index)
                assert result.identical_to(direct)
            for index, result in enumerate(func_results):
                direct = reference.run_functional(
                    network, frames[index:index + 1], config=config
                )
                assert result.identical_to(direct)

    def test_repeat_request_short_circuits_without_second_dispatch(self, config):
        coordinator = Coordinator(max_batch=4, max_wait_ms=5)
        workers = []
        try:
            workers = [
                _start_inline_worker(coordinator.address, worker_id="solo")
            ]
            assert coordinator.wait_for_workers(1, timeout=30)
            first = coordinator.submit_statistical(config=config, seed=88)
            first_result = first.result(timeout=120)
            # Same parameters again: the replicated store already holds it.
            second = coordinator.submit_statistical(config=config, seed=88)
            second_result = second.result(timeout=120)
            stats = coordinator.stats()
        finally:
            coordinator.close()
            for _worker, thread in workers:
                thread.join(timeout=10)

        assert second_result.identical_to(first_result)
        # Either the admission store check or the dispatch-time check caught
        # it; both count as "no second engine pass".
        assert (
            stats["serve.store_short_circuits"]
            + stats["net.dispatch_short_circuits"]
        ) >= 1

    def test_worker_local_store_hit_after_replication(self, config):
        coordinator = Coordinator(max_batch=4, max_wait_ms=5)
        workers = []
        try:
            workers = [
                _start_inline_worker(coordinator.address, worker_id=f"r{i}")
                for i in range(2)
            ]
            assert coordinator.wait_for_workers(2, timeout=30)
            future = coordinator.submit_statistical(config=config, seed=97)
            future.result(timeout=120)
            stats = coordinator.stats()
        finally:
            coordinator.close()
            for _worker, thread in workers:
                thread.join(timeout=10)
        # The computed result was broadcast to every live worker.
        assert stats["net.store_replications"] >= 1


class TestLifecycle:
    def test_close_wakes_the_blocked_accept_thread(self):
        # The accept thread sits in accept() for the coordinator's whole
        # life; close() must wake it rather than wait out its join timeout.
        coordinator = Coordinator()
        assert coordinator._accept_thread.is_alive()
        coordinator.close()
        assert not coordinator._accept_thread.is_alive()


class TestTelemetrySurface:
    def test_stats_snapshot_declares_the_net_surface(self):
        coordinator = Coordinator()
        try:
            stats = coordinator.stats()
        finally:
            coordinator.close(drain=False)
        for key in (
            "net.dispatches", "net.results", "net.rescues",
            "net.redispatched_requests", "net.dispatch_short_circuits",
            "net.heartbeats", "net.store_replications",
            "net.workers_registered", "net.workers_lost", "net.workers",
        ):
            assert key in stats, f"telemetry surface is missing {key}"

    def test_workers_detail_probe_reports_links(self, config):
        coordinator = Coordinator(max_batch=2, max_wait_ms=5)
        workers = []
        try:
            workers = [
                _start_inline_worker(coordinator.address, worker_id="probe-w")
            ]
            assert coordinator.wait_for_workers(1, timeout=30)
            coordinator.submit_statistical(config=config, seed=3).result(
                timeout=120
            )
            detail = coordinator.stats()["net.workers_detail"]
            bytes_probe = coordinator.stats()["net.bytes"]
        finally:
            coordinator.close()
            for _worker, thread in workers:
                thread.join(timeout=10)
        assert "probe-w" in detail
        assert detail["probe-w"]["dispatches"] >= 1
        assert detail["probe-w"]["bytes_sent"] > 0
        assert bytes_probe["sent"] > 0 and bytes_probe["received"] > 0


class TestReplicatedStore:
    def test_put_publishes_and_apply_does_not(self):
        published = []
        with Session() as session:
            store = ReplicatedResultStore(
                session.store, publish=lambda fp, result: published.append(fp)
            )
            store.put("fp-a", {"row": 1})
            assert published == ["fp-a"]
            # Replication traffic applies without echoing back out.
            store.apply("fp-b", {"row": 2})
            assert published == ["fp-a"]
            assert store.get("fp-a") == {"row": 1}
            assert store.get("fp-b") == {"row": 2}
            stats = store.stats()
            assert stats["replication_published"] == 1
            assert stats["replication_applied"] == 1


class TestLivenessUnderTransfer:
    def test_reap_defers_to_a_link_mid_transfer(self):
        # Regression: a multi-megabyte (possibly compressed) __blob__
        # answer keeps the link thread inside send() for longer than the
        # liveness window, during which it cannot read the worker's
        # perfectly punctual heartbeats off the socket.  The monitor must
        # treat the in-flight transfer as proof of life instead of
        # reaping a healthy worker mid-frame — which tears the stream on
        # the worker side (TruncatedFrame) and, with no worker left,
        # strands every future.
        from repro.net.coordinator import _WorkerLink

        class _MidTransfer:
            sending = True

            def close(self):
                pass

        coordinator = Coordinator(
            max_batch=1, max_wait_ms=1, liveness_timeout_s=0.05
        )
        try:
            connection = _MidTransfer()
            link = _WorkerLink("busy", connection)
            with coordinator._net_lock:
                link.last_heartbeat = time.time() - 60.0
                coordinator._links["busy"] = link
            coordinator._reap_dead()
            assert link.alive
            # the stamp was refreshed: the thread gets a full liveness
            # window to drain queued heartbeats once the send completes
            assert link.last_heartbeat > time.time() - 5.0
            # a genuinely silent worker is still reaped once idle
            connection.sending = False
            with coordinator._net_lock:
                link.last_heartbeat = time.time() - 60.0
            coordinator._reap_dead()
            assert not link.alive
        finally:
            with coordinator._net_lock:
                coordinator._links.pop("busy", None)
            coordinator.close(drain=False)
