"""Concurrent inference service over one shared :class:`repro.session.Session`.

:class:`InferenceServer` is the long-lived front door the ROADMAP's
"serves heavy traffic" north star asks for: callers submit independent
statistical or functional inference requests and receive
:class:`concurrent.futures.Future` objects; inside, N worker threads pull
FIFO micro-batches off a bounded :class:`~repro.serve.queue.RequestQueue`
(admission control: :class:`~repro.serve.queue.QueueFull` when the depth
bound is hit, :class:`~repro.serve.queue.DeadlineExceeded` when a request
expires while queued) and execute them through the
:class:`~repro.serve.batcher.MicroBatcher`, so concurrent single-frame
traffic rides the PR-4 batch engines instead of paying the solo path per
request.

The session's :class:`~repro.session.ResultStore` short-circuits the queue
entirely: a request whose fingerprint is already stored resolves at
admission without ever being queued, and every computed result is stored
under the same fingerprints :meth:`Session.run_inference` /
:meth:`Session.run_functional` use — the server and the direct API share
one cache.

Every stage records into a :class:`~repro.serve.metrics.MetricsRegistry`
(request/rejection/hit counters, queue-depth gauge, batch-size and latency
histograms with p50/p95/p99, plus a live probe of the store's
:meth:`~repro.session.ResultStore.stats`), exposed as one JSON-friendly
snapshot via :meth:`InferenceServer.stats`.

:meth:`InferenceServer.close` drains gracefully by default: admission stops,
accepted requests still execute, workers join.  ``drain=False`` fails
whatever is still queued with :class:`~repro.serve.queue.ServerClosed`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional

from ..config import RunConfig, check_run_size
from ..obs import Tracer
from ..session import Session
from ..snn.numerics import NumericsPolicy, resolve as resolve_numerics
from .batcher import MicroBatcher, functional_group_key, statistical_group_key
from .metrics import MetricsRegistry
from .queue import (
    InferenceRequest,
    QueueFull,
    RequestQueue,
    ServerClosed,
    resolve_future,
)

__all__ = ["InferenceServer"]


class InferenceServer:
    """Thread-pooled, micro-batching inference service.

    Parameters
    ----------
    session:
        The :class:`~repro.session.Session` whose engines, hardware models
        and result store serve every request.  Omitted: the server creates
        (and owns, and closes) a default session.
    workers:
        Worker-thread count.  Workers collect *disjoint* micro-batches, so
        more workers overlap engine passes of incompatible traffic; one
        worker already micro-batches compatible traffic perfectly.  ``0``
        means no local execution at all: an external dispatcher drains the
        queue instead (the :class:`repro.net.Coordinator` subclass hands
        batches to remote worker processes).
    max_batch / max_wait_ms:
        Micro-batching knobs (see :meth:`~repro.serve.batcher.MicroBatcher.collect`):
        a batch flushes at ``max_batch`` coalesced frames.  On an empty queue
        it lingers for at most ``max_wait_ms`` of collection, and only when
        arrivals are clustered (a request admitted within ``max_wait_ms`` of
        the one before it); a lone request flushes at once.
    max_queue:
        Admission bound of the request queue (backpressure).
    default_deadline_s:
        Deadline applied to requests that do not bring their own; ``None``
        means queued requests never expire.
    default_numerics:
        Golden-model :class:`~repro.snn.numerics.NumericsPolicy` applied to
        functional requests that do not bring their own (``None`` -> the
        FP64 dense reference).  Per-request ``numerics=`` on
        :meth:`submit_functional` overrides it.
    tracer:
        A :class:`repro.obs.Tracer`.  Omitted: a disabled tracer, whose
        hooks cost one attribute test per call site (the ≤2% overhead bar
        ``benchmarks/bench_trace.py`` gates).  An enabled tracer opens a
        root span per sampled request at admission, records
        queue_wait/batch_assembly/engine_pass stage spans through the
        batcher, and feeds ``serve.stage_latency.*`` histograms plus the
        ``obs.trace`` probe into :attr:`metrics`.
    """

    #: A server with no execution threads is a configuration error here;
    #: subclasses that execute elsewhere (the distributed coordinator, whose
    #: workers are remote processes) lower this to 0.
    _MIN_WORKERS = 1

    def __init__(
        self,
        session: Optional[Session] = None,
        workers: int = 2,
        max_batch: int = 16,
        max_wait_ms: float = 5.0,
        max_queue: int = 256,
        default_deadline_s: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        default_numerics: Optional[NumericsPolicy] = None,
        tracer: Optional[Tracer] = None,
    ):
        if workers < self._MIN_WORKERS:
            raise ValueError(
                f"workers must be >= {self._MIN_WORKERS}, got {workers}"
            )
        self._owns_session = session is None
        self.session = session if session is not None else Session()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.default_deadline_s = default_deadline_s
        self.default_numerics = resolve_numerics(default_numerics)
        self.tracer = tracer if tracer is not None else Tracer()
        self.tracer.bind_metrics(self.metrics)
        self.queue = RequestQueue(max_queue, on_expired=self._on_expired)
        self.batcher = MicroBatcher(
            self.session, max_batch=max_batch, max_wait_ms=max_wait_ms,
            metrics=self.metrics, tracer=self.tracer,
        )
        self.metrics.add_probe("serve.store", self.session.store.stats)
        self.metrics.add_probe("serve.queue", self._queue_stats)
        self.metrics.add_probe("serve.numerics", self._numerics_stats)
        self.metrics.add_probe("obs.trace", self.tracer.stats)
        self.metrics.gauge("serve.workers").set(workers)
        # Mixed-precision observability: a 0/1 gauge flags a non-reference
        # default policy, and per-policy request counters
        # (serve.numerics.requests.<key>) appear as traffic arrives.
        self.metrics.gauge("serve.numerics.non_reference").set(
            0.0 if self.default_numerics.is_reference else 1.0
        )
        # Declare the whole telemetry surface up front so every snapshot has
        # the same keys, zeroed, whether or not an event happened yet.
        for counter in ("serve.requests", "serve.completed", "serve.rejected",
                        "serve.expired", "serve.errors", "serve.cancelled",
                        "serve.store_short_circuits", "serve.batches",
                        "serve.flush.idle", "serve.flush.full",
                        "serve.flush.waited", "serve.flush.incompatible"):
            self.metrics.counter(counter)
        for histogram in ("serve.latency_ms", "serve.batch_frames",
                          "serve.batch_requests", "serve.batch_collect_ms"):
            self.metrics.histogram(histogram)
        if self.tracer.enabled:
            from ..obs import STAGE_NAMES

            for stage in STAGE_NAMES:
                self.metrics.histogram(f"serve.stage_latency.{stage}")
        self._close_lock = threading.Lock()
        self._closed = False
        self._threads: List[threading.Thread] = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- admission ----------------------------------------------------------
    def _queue_stats(self) -> Dict[str, float]:
        return {"depth": self.queue.depth(), "bound": self.queue.maxsize}

    def _on_expired(self, request: InferenceRequest) -> None:
        self.metrics.counter("serve.expired").inc()

    def _numerics_stats(self) -> Dict[str, object]:
        """The active default policy, flattened into every stats snapshot."""
        policy = self.default_numerics
        return {
            "default": policy.key(),
            "precision": policy.precision,
            "forward_path": policy.forward_path,
        }

    def _deadline(self, deadline_s: Optional[float]) -> Optional[float]:
        effective = deadline_s if deadline_s is not None else self.default_deadline_s
        if effective is None:
            return None
        return time.monotonic() + effective

    def _admit(self, request: InferenceRequest) -> Future:
        """Store short-circuit, then bounded enqueue; rejections count."""
        self.metrics.counter("serve.requests").inc()
        # Root span first: the future's done-callback finishes it, so every
        # exit below (store hit, rejection, execution) closes the trace.
        self.tracer.admit(request)
        hit = self.session.store.get(request.fingerprint)
        if hit is not None:
            self.metrics.counter("serve.store_short_circuits").inc()
            resolve_future(request.future, hit)
            self.metrics.histogram("serve.latency_ms").observe(0.0)
            return request.future
        try:
            if self._closed:
                raise ServerClosed("server is closed to new requests")
            self.queue.put(request)
        except (QueueFull, ServerClosed) as error:
            self.metrics.counter("serve.rejected").inc()
            # The caller sees the exception, not the future — but failing
            # the (discarded) future fires its done-callbacks, closing the
            # trace's root span instead of leaking it open.
            resolve_future(request.future, error=error)
            raise
        return request.future

    def submit_statistical(
        self,
        config: Optional[RunConfig] = None,
        batch_size: Optional[int] = None,
        seed: Optional[int] = None,
        firing_rates: Optional[Dict[str, float]] = None,
        timesteps: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> Future:
        """Queue one statistical run; resolves to an ``InferenceResult``.

        Parameter defaults mirror :meth:`Session.run_inference` exactly
        (``None`` falls back to the config's own values), and the result is
        bit-for-bit what that direct call would return.  A ``batch_size`` or
        ``timesteps`` below 1 raises ``ValueError`` here, before admission,
        so it can never join (and fail) a micro-batch.
        """
        check_run_size(batch_size, timesteps)
        config = config if config is not None else self.session.config
        batch_size = batch_size if batch_size is not None else config.batch_size
        seed = seed if seed is not None else config.seed
        timesteps = timesteps if timesteps is not None else config.timesteps
        request = InferenceRequest(
            mode="statistical",
            config=config,
            group_key=statistical_group_key(
                self.session, config, firing_rates, timesteps
            ),
            fingerprint=self.session.fingerprint(
                config, batch_size, firing_rates, seed, timesteps
            ),
            frames_count=batch_size,
            batch_size=batch_size,
            seed=seed,
            timesteps=timesteps,
            firing_rates=firing_rates,
            deadline=self._deadline(deadline_s),
        )
        return self._admit(request)

    def submit_functional(
        self,
        network,
        frames,
        config: Optional[RunConfig] = None,
        deadline_s: Optional[float] = None,
        numerics: Optional[NumericsPolicy] = None,
    ) -> Future:
        """Queue one functional run; resolves to an ``InferenceResult``.

        Mirrors :meth:`Session.run_functional`: the network's real recorded
        activity is costed under ``config`` (the session's default when
        omitted), and compatible concurrent requests share one batched
        forward pass.  ``numerics`` selects the request's golden-model
        policy (default: the server's :attr:`default_numerics`); requests
        under different policies never share a batch or a store entry.
        Zero frames raise ``ValueError`` here, before admission.
        """
        import numpy as np

        config = config if config is not None else self.session.config
        policy = self.default_numerics if numerics is None else numerics
        stacked = frames if isinstance(frames, np.ndarray) else np.stack(
            [np.asarray(frame) for frame in frames]
        )
        if stacked.shape[0] < 1:
            raise ValueError("a functional request needs at least one frame, got 0")
        self.metrics.counter(f"serve.numerics.requests.{policy.key()}").inc()
        request = InferenceRequest(
            mode="functional",
            config=config,
            group_key=functional_group_key(
                self.session, config, network, stacked, numerics=policy
            ),
            fingerprint=self.session.functional_fingerprint(
                config, network, stacked, numerics=policy
            ),
            frames_count=int(stacked.shape[0]),
            network=network,
            frames=stacked,
            policy=policy,
            deadline=self._deadline(deadline_s),
        )
        return self._admit(request)

    # -- execution ----------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            first = self.queue.pop(timeout=0.05)
            if first is None:
                if self.queue.closed:
                    return
                continue
            batch = self.batcher.collect(self.queue, first)
            try:
                results = self.batcher.execute(batch)
            except Exception as error:
                self.metrics.counter("serve.errors").inc(len(batch))
                for request in batch:
                    resolve_future(request.future, error=error)
                continue
            now = time.monotonic()
            for request, result in zip(batch, results):
                self.session.store.put(request.fingerprint, result)
                self.metrics.histogram("serve.latency_ms").observe(
                    (now - request.enqueued_at) * 1e3
                )
                # A caller may have cancel()ed while the batch ran; the
                # result is still stored, only the delivery is dropped.
                resolve_future(request.future, result)
            self.metrics.counter("serve.completed").inc(len(batch))

    # -- lifecycle ----------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop admission and shut the workers down (idempotent).

        ``drain=True`` (default) executes everything already accepted before
        returning — no accepted request is ever lost.  ``drain=False`` fails
        queued-but-unstarted requests with
        :class:`~repro.serve.queue.ServerClosed`.  A session created by the
        server is closed with it; an injected session stays open (its caller
        owns it).
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self.queue.close()
        if not drain:
            cancelled = self.queue.cancel_pending()
            self.metrics.counter("serve.cancelled").inc(cancelled)
        for thread in self._threads:
            thread.join()
        if self._owns_session:
            self.session.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observability ------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """One JSON-serializable telemetry snapshot (see module docstring)."""
        return self.metrics.snapshot()
