"""Coordinator + workers as one cluster: equivalence, one store, telemetry.

The distributed tier must be invisible to callers: every response served
through a :class:`~repro.net.coordinator.Coordinator` and its remote
workers is bit-for-bit identical to the direct
:class:`~repro.session.Session` call — under the coordinator's hardware
models, not the workers' defaults — the coordinator's store is the one
result cache, so a repeat request short-circuits without touching a worker
and nothing else crosses the wire to keep caches warm, a caller cannot
change what the coordinator stored, and the ``net.*`` telemetry surface is
complete.
"""

import socket
import threading
import time

import pytest

from repro.arch.params import ClusterParams
from repro.config import spikestream_config
from repro.eval.sweeps import functional_network
from repro.net import Coordinator, NetWorker, framing
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
            # Same parameters again: the coordinator's store already holds it.
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

    def test_workers_cost_under_the_coordinators_hardware_models(self, config):
        cluster = ClusterParams(num_worker_cores=4)
        session = Session(cluster=cluster)
        coordinator = Coordinator(session=session, max_batch=4, max_wait_ms=5)
        workers = []
        try:
            workers = [
                _start_inline_worker(coordinator.address, worker_id="custom")
            ]
            assert coordinator.wait_for_workers(1, timeout=30)
            result = coordinator.submit_statistical(config=config, seed=29).result(
                timeout=120
            )
        finally:
            coordinator.close()
            for _worker, thread in workers:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for _worker, thread in workers)
        direct = Session(cluster=cluster).run_inference(config, batch_size=1,
                                                        seed=29)
        assert result.identical_to(direct)
        stored = session.store.get(session.fingerprint(config, None, None, 29, None))
        assert stored is not None and stored.identical_to(direct)

    def test_wave_sends_nothing_but_work_and_blobs(self, config):
        # The coordinator's store is the only cache: a wave over two
        # workers puts registration acks, batches, the shutdown and blob
        # traffic on the wire, and nothing that warms worker-side caches.
        network = functional_network(97)
        frames, _ = SyntheticCIFAR10(
            seed=97, image_shape=TensorShape(16, 16, 3)
        ).sample(2)
        coordinator = Coordinator(max_batch=4, max_wait_ms=5)
        workers = []
        try:
            workers = [
                _start_inline_worker(coordinator.address, worker_id=f"r{i}")
                for i in range(2)
            ]
            assert coordinator.wait_for_workers(2, timeout=30)
            futures = [
                coordinator.submit_statistical(config=config, seed=97 + index)
                for index in range(4)
            ] + [
                coordinator.submit_functional(
                    network, frames[index:index + 1], config=config
                )
                for index in range(2)
            ]
            for future in futures:
                future.result(timeout=120)
        finally:
            coordinator.close()
            for _worker, thread in workers:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for _worker, thread in workers)
        sent = set(coordinator.stats()["net.bytes"]["sent_by_kind"])
        assert {"registered", "batch", "shutdown"} <= sent
        assert sent <= {"registered", "batch", "shutdown",
                        framing.NEED_BLOB_KIND, framing.BLOB_KIND}


class TestCallerIsolation:
    """What a caller does to its result never reaches the coordinator's
    store: the store adopts the decoded result, the caller gets a copy."""

    @staticmethod
    def _submit_twice(config, between):
        coordinator = Coordinator(max_batch=4, max_wait_ms=5)
        workers = []
        try:
            workers = [
                _start_inline_worker(coordinator.address, worker_id="solo")
            ]
            assert coordinator.wait_for_workers(1, timeout=30)
            first = coordinator.submit_statistical(config=config, seed=5)
            first_result = first.result(timeout=120)
            between(first_result)
            second = coordinator.submit_statistical(config=config, seed=5)
            second_result = second.result(timeout=120)
            stats = coordinator.stats()
        finally:
            coordinator.close()
            for _worker, thread in workers:
                thread.join(timeout=10)
        assert (
            stats["serve.store_short_circuits"]
            + stats["net.dispatch_short_circuits"]
        ) >= 1, "the repeat request was not a store hit"
        return second_result

    def test_caller_mutation_does_not_reach_the_store(self):
        config = spikestream_config(batch_size=1, seed=5)
        second = self._submit_twice(config, lambda result: result.layers.clear())
        direct = Session().run_inference(config, batch_size=1, seed=5)
        assert len(second.layers) == 11
        assert second.identical_to(direct)

    def test_out_of_band_arrays_cannot_be_written_in_place(self, monkeypatch):
        # Arrays at or above ARRAY_OOB_BYTES land in fresh writable
        # buffers on receipt (large batches); lowering the bound sends a
        # batch-1 result's per-frame arrays that way.
        monkeypatch.setattr(framing, "ARRAY_OOB_BYTES", 8)
        config = spikestream_config(batch_size=1, seed=5)

        def write_in_place(result):
            with pytest.raises(ValueError, match="read-only"):
                result.layers[0].cycles[0] = -1.0

        second = self._submit_twice(config, write_in_place)
        direct = Session().run_inference(config, batch_size=1, seed=5)
        assert second.identical_to(direct)


class TestLifecycle:
    def test_close_wakes_the_blocked_accept_thread(self):
        # The accept thread sits in accept() for the coordinator's whole
        # life; close() must wake it rather than wait out its join timeout.
        coordinator = Coordinator()
        assert coordinator._accept_thread.is_alive()
        coordinator.close()
        assert not coordinator._accept_thread.is_alive()


class TestLinkSockets:
    def test_both_ends_of_a_worker_link_send_without_nagle_delay(self):
        """Each frame is written whole, so neither end may hold a small one
        back: a lone result would wait behind an unacknowledged heartbeat
        for the peer's delayed ACK."""
        coordinator = Coordinator()
        worker, thread = _start_inline_worker(coordinator.address, worker_id="w0")
        try:
            assert coordinator.wait_for_workers(1, timeout=30)
            ends = [worker._connection._sock, coordinator._links["w0"].connection._sock]
            for sock in ends:
                assert sock.family in (socket.AF_INET, socket.AF_INET6)
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            coordinator.close()
            thread.join(timeout=10)


class TestFlushPolicy:
    def test_lone_request_ships_without_the_window(self, config):
        # The dispatcher collects through the server's batcher, so a lone
        # request skips the 10s window here too.
        coordinator = Coordinator(max_wait_ms=10_000)
        workers = []
        try:
            workers = [
                _start_inline_worker(coordinator.address, worker_id="lone")
            ]
            assert coordinator.wait_for_workers(1, timeout=30)
            result = coordinator.submit_statistical(config=config, seed=29).result(
                timeout=5
            )
            stats = coordinator.stats()
        finally:
            coordinator.close()
            for _worker, thread in workers:
                thread.join(timeout=10)

        assert stats["serve.flush.idle"] == 1
        with Session() as reference:
            assert result.identical_to(
                reference.run_inference(config, batch_size=1, seed=29)
            )


class TestEmptyRequests:
    def test_zero_batch_refused_before_dispatch(self, config):
        # The Coordinator inherits the server's admission checks: the empty
        # request raises at submission and its neighbours are served.
        seeds = range(90, 96)
        coordinator = Coordinator(max_batch=16, max_wait_ms=50)
        workers = []
        try:
            workers = [_start_inline_worker(coordinator.address, worker_id="w0")]
            assert coordinator.wait_for_workers(1, timeout=30)
            futures = [coordinator.submit_statistical(config=config, seed=seed)
                       for seed in seeds[:3]]
            with pytest.raises(ValueError, match="batch_size must be positive"):
                coordinator.submit_statistical(config=config, batch_size=0, seed=99)
            futures += [coordinator.submit_statistical(config=config, seed=seed)
                        for seed in seeds[3:]]
            results = [future.result(timeout=60) for future in futures]
        finally:
            coordinator.close()
            for _worker, thread in workers:
                thread.join(timeout=10)

        with Session() as reference:
            for seed, result in zip(seeds, results):
                direct = reference.run_inference(config, batch_size=1, seed=seed)
                assert result.identical_to(direct), f"seed {seed} diverged"


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
            "net.heartbeats", "net.workers_registered", "net.workers_lost",
            "net.workers", "serve.flush.idle", "serve.flush.full",
            "serve.flush.waited", "serve.flush.incompatible",
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


class TestLivenessUnderTransfer:
    def test_reap_defers_to_a_link_mid_transfer(self):
        # Regression: a multi-megabyte __blob__ answer keeps the link
        # thread inside send() for longer than the liveness window, during which it cannot read the worker's
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
