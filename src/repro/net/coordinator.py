"""The coordinator: admission front of a multi-host serving cluster.

:class:`Coordinator` subclasses :class:`repro.serve.server.InferenceServer`
with ``workers=0``: the whole single-host admission surface — bounded
:class:`~repro.serve.queue.RequestQueue` backpressure, deadlines, the
result-store short-circuit, ``submit_statistical`` / ``submit_functional``,
telemetry — is inherited unchanged, and instead of local worker threads the
queue is drained by *remote worker processes* speaking the
:mod:`repro.net.framing` wire protocol (v2).

Dispatch is credit-based and pushed.  A worker registers advertising a
*credit window* — how many batches may be outstanding on its link — and a
single dispatcher thread drains the queue: it waits for traffic, picks the
least-loaded worker with free credit, lets the inherited
:class:`~repro.serve.batcher.MicroBatcher` collect a fingerprint-compatible
micro-batch behind the head, re-checks the result store per request (a
result replicated from another worker since admission resolves right here —
the cluster-wide short-circuit), records the remainder as an in-flight
:class:`DispatchedBatch` and ships it.  With ``credit > 1`` the next batch
is already sitting in the worker's socket buffer while the previous one
computes, so the wire round-trip that used to serialize every
``pull -> batch -> results`` cycle overlaps with execution.  Results stream
back asynchronously; each one lands in the
:class:`~repro.net.store.ReplicatedResultStore` (which broadcasts
``store_put`` to every *other* worker — the producer already has it),
resolves the caller's future, and refills the link's credit, waking the
dispatcher.

Large arrays ride the frame protocol's content-addressed blob cache
(:class:`~repro.net.blob.BlobCache`, shared across every link): network
weight panels cross each link once, after which batches reference them by
digest (``net.blob.*`` telemetry counts the savings).

Failure semantics:

* **dead worker** — heartbeats stop for longer than ``liveness_timeout_s``
  (or the connection drops): every in-flight request of that worker whose
  future is still pending — up to a *full credit window* of batches — is
  re-queued *at the head* of the request queue
  (:meth:`~repro.serve.queue.RequestQueue.requeue`), so the dispatcher
  ships it to a healthy worker before fresh traffic.  No future is ever
  lost.
* **stalled worker** — still heartbeating but sitting on a batch: rescued
  when the batch has been in flight longer than ``stall_timeout_s`` (when
  set), or — deadline-aware — when a request's deadline is closer than
  ``deadline_margin_s``.  The slow worker's late results are *not*
  discarded: they land in the replicated store, where the re-queued
  requests' dispatch-time store check resolves them without a second
  engine pass; double resolution is absorbed by
  :func:`~repro.serve.queue.resolve_future` (first outcome wins).

Per-worker telemetry (dispatches, rescues, heartbeat lag, bytes on wire —
total and per message kind — plus blob-cache savings) merges into the
inherited :class:`~repro.serve.metrics.MetricsRegistry` under ``net.*``
names, so one :meth:`stats` snapshot covers admission, batching and the
cluster.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..serve.metrics import MetricsRegistry
from ..serve.queue import InferenceRequest, resolve_future
from ..serve.server import InferenceServer
from ..session import Session
from ..snn.numerics import NumericsPolicy
from .blob import BlobCache
from .framing import FrameError, FramedConnection, Message, request_to_wire
from .store import ReplicatedResultStore
from .worker import DEFAULT_CREDIT

__all__ = ["Coordinator", "DispatchedBatch"]

#: Errors that mean "this worker's connection is gone" (mirrors
#: ``DISPATCH_ERRORS`` in :mod:`repro.backends`: infrastructure death, never
#: a request error).
_LINK_ERRORS = (FrameError, OSError)


class DispatchedBatch:
    """One micro-batch in flight on a worker, tracked for rescue."""

    __slots__ = ("batch_id", "requests", "worker_id", "dispatched_at",
                 "deadline", "span")

    def __init__(self, batch_id: int, requests: List[InferenceRequest],
                 worker_id: str):
        self.batch_id = batch_id
        self.requests = requests
        self.worker_id = worker_id
        self.dispatched_at = time.monotonic()
        deadlines = [r.deadline for r in requests if r.deadline is not None]
        #: the earliest deadline in the batch (monotonic) or None
        self.deadline = min(deadlines) if deadlines else None
        #: the dispatch span covering this batch's sampled traces (None when
        #: tracing is off); finished by the results handler or a rescue
        self.span = None


class _WorkerLink:
    """Coordinator-side state of one registered worker connection.

    Every field after construction is mutated only under the owning
    coordinator's ``_net_lock``; the link itself holds no lock.
    """

    def __init__(self, worker_id: str, connection: FramedConnection,
                 pid: Optional[int] = None, credit: int = DEFAULT_CREDIT):
        self.worker_id = worker_id
        self.connection = connection
        self.pid = pid
        #: batches the dispatcher may keep outstanding on this link
        self.credit = max(1, int(credit))
        self.registered_at = time.time()
        self.last_heartbeat = time.time()
        self.last_lag_ms = 0.0
        self.dispatches = 0
        self.results = 0
        self.local_hits = 0
        self.rescued_from = 0
        self.alive = True
        self.stats: Dict[str, object] = {}
        self.inflight: Dict[int, DispatchedBatch] = {}
        self.thread: Optional[threading.Thread] = None


class Coordinator(InferenceServer):
    """Serve traffic through remote worker processes (see module docstring).

    Parameters (beyond the inherited :class:`InferenceServer` ones)
    ----------------------------------------------------------------
    host / port:
        Listen address; ``port=0`` picks a free port — read it back from
        :attr:`address`.
    heartbeat_interval_s:
        Interval workers are told to heartbeat at (handed to them in the
        ``registered`` ack).
    liveness_timeout_s:
        A worker whose last heartbeat is older than this is declared dead
        and its in-flight batches are rescued.
    stall_timeout_s:
        Rescue any batch in flight longer than this even if its worker
        still heartbeats (``None`` disables the flat bound).
    deadline_margin_s:
        Deadline-aware rescue: a batch still in flight when a request's
        deadline is closer than this margin is re-queued (once per
        request) so a healthy worker can still beat the deadline.
    pull_wait_s:
        Idle pacing of the dispatcher: how long it blocks waiting for
        traffic or freed credit before re-checking.
    drain_timeout_s:
        Upper bound :meth:`close(drain=True) <close>` waits for queued and
        in-flight work to finish.
    blob_threshold / wire_compress:
        Wire-protocol knobs for every worker link — the array size at
        which payloads turn into content digests (``None`` keeps the
        :data:`~repro.net.framing.BLOB_THRESHOLD_BYTES` default), and
        whether buffers are deflated on send (worth it for sparse spike
        tensors, pure overhead for dense weights).
    """

    _MIN_WORKERS = 0  # execution happens in remote worker processes, not threads

    def __init__(
        self,
        session: Optional[Session] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 16,
        max_wait_ms: float = 5.0,
        max_queue: int = 256,
        default_deadline_s: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        default_numerics: Optional[NumericsPolicy] = None,
        heartbeat_interval_s: float = 0.2,
        liveness_timeout_s: float = 1.5,
        stall_timeout_s: Optional[float] = None,
        deadline_margin_s: float = 0.5,
        pull_wait_s: float = 0.2,
        drain_timeout_s: float = 30.0,
        blob_threshold: Optional[int] = None,
        wire_compress: bool = False,
        tracer=None,
    ):
        super().__init__(
            session=session,
            workers=0,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue=max_queue,
            default_deadline_s=default_deadline_s,
            metrics=metrics,
            default_numerics=default_numerics,
            tracer=tracer,
        )
        self.heartbeat_interval_s = heartbeat_interval_s
        self.liveness_timeout_s = liveness_timeout_s
        self.stall_timeout_s = stall_timeout_s
        self.deadline_margin_s = deadline_margin_s
        self.pull_wait_s = pull_wait_s
        self.drain_timeout_s = drain_timeout_s
        self.blob_threshold = blob_threshold
        self.wire_compress = wire_compress
        #: one cache across every link: a blob registered while encoding
        #: for one worker answers any worker's ``__need_blob__``
        self.blob_cache = BlobCache()
        self.net_store = ReplicatedResultStore(
            self.session.store, publish=self._replicate,
            publish_many=self._replicate_many,
        )
        self._net_lock = threading.Lock()
        self._links: Dict[str, _WorkerLink] = {}
        self._worker_ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._collecting = 0
        #: write-behind replication buffer: ``(entries, origin)`` per
        #: results frame, plus the monotonic stamp of the oldest buffered
        #: frame (see ``_replicate_many``).  Guarded by ``_net_lock``.
        self._replication_pending: List[Tuple[List[Dict[str, object]], Optional[str]]] = []
        self._replication_stamp: Optional[float] = None
        #: oldest a buffered replication entry may grow before the monitor
        #: flushes it even under sustained load
        self.replication_flush_s = 0.5
        self._shutting_down = False
        self._deadline_rescued: set = set()
        self._stop_monitor = threading.Event()
        self._stop_dispatch = threading.Event()
        # Wakes the dispatcher when credit frees up (results, registration,
        # worker loss).  A plain Event, NOT a Condition on _net_lock: the
        # lock tracer swaps _net_lock after construction, and a Condition
        # bound to the original lock would dodge the instrumentation.
        self._dispatch_wake = threading.Event()
        # Declare the cluster telemetry surface up front (same convention as
        # the parent: every snapshot has every key, zeroed or not).
        for counter in ("net.dispatches", "net.results", "net.rescues",
                        "net.redispatched_requests", "net.dispatch_short_circuits",
                        "net.heartbeats", "net.store_replications",
                        "net.workers_registered", "net.workers_lost",
                        "net.credit_stalls"):
            self.metrics.counter(counter)
        for histogram in ("net.heartbeat_lag_ms", "net.batch_rtt_ms"):
            self.metrics.histogram(histogram)
        self.metrics.gauge("net.workers").set(0)
        self.metrics.add_probe("net.workers_detail", self._workers_probe)
        self.metrics.add_probe("net.bytes", self._bytes_probe)
        self.metrics.add_probe("net.blob", self._blob_probe)
        self.metrics.add_probe("net.store", self.net_store.stats)
        self._listener = socket.create_server((host, port))
        #: the bound ``(host, port)`` workers connect to
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-net-accept", daemon=True
        )
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="repro-net-monitor", daemon=True
        )
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="repro-net-dispatch", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread.start()
        self._dispatch_thread.start()

    # -- registration -------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            connection = FramedConnection(
                sock,
                blob_cache=self.blob_cache,
                blob_threshold=self.blob_threshold,
                compress=self.wire_compress,
            )
            try:
                hello = connection.recv()
                if hello.kind != "register":
                    raise FrameError(
                        f"expected a register message, got {hello.kind!r}"
                    )
            except _LINK_ERRORS:
                connection.close()
                continue
            self._register_worker(connection, hello)

    def _register_worker(self, connection: FramedConnection,
                         hello: Message) -> None:
        serial = next(self._worker_ids)
        requested = hello.get("worker_id")
        credit = hello.get("credit") or DEFAULT_CREDIT
        with self._net_lock:
            worker_id = str(requested) if requested else f"worker-{serial}"
            if worker_id in self._links:
                worker_id = f"{worker_id}-{serial}"
            link = _WorkerLink(worker_id, connection, pid=hello.get("pid"),
                               credit=int(credit))
            self._links[worker_id] = link
        try:
            connection.send(
                "registered",
                worker_id=worker_id,
                heartbeat_interval_s=self.heartbeat_interval_s,
                coordinator_pid=os.getpid(),
            )
        except _LINK_ERRORS as error:
            self._lose_worker(link, error)
            return
        self.metrics.counter("net.workers_registered").inc()
        self._refresh_worker_gauge()
        thread = threading.Thread(
            target=self._serve_worker,
            args=(link,),
            name=f"repro-net-{worker_id}",
            daemon=True,
        )
        with self._net_lock:
            link.thread = thread
        thread.start()
        self._dispatch_wake.set()  # fresh credit available

    def wait_for_workers(self, count: int, timeout: float = 10.0) -> bool:
        """Block until ``count`` workers are registered and alive."""
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            if self.live_workers() >= count:
                return True
            time.sleep(0.02)
        return self.live_workers() >= count

    def live_workers(self) -> int:
        """Number of currently registered, live workers."""
        with self._net_lock:
            return sum(1 for link in self._links.values() if link.alive)

    # -- the per-connection protocol loop -----------------------------------
    def _serve_worker(self, link: _WorkerLink) -> None:
        while True:
            try:
                message = link.connection.recv()
            except _LINK_ERRORS as error:
                self._lose_worker(link, error)
                return
            # Any inbound frame proves the worker alive — a link thread
            # spending seconds in _on_results must not let the heartbeat
            # stamp age past the liveness horizon meanwhile.
            with self._net_lock:
                link.last_heartbeat = time.time()
            if message.kind == "heartbeat":
                self._on_heartbeat(link, message)
            elif message.kind == "pull":
                # v2 readiness signal (sent once after registration); work
                # is pushed by the dispatcher, so just nudge it.
                self._dispatch_wake.set()
            elif message.kind == "results":
                self._on_results(link, message)
            elif message.kind == "goodbye":
                self._retire_worker(link)
                return
            # unknown kinds are ignored: a newer same-WIRE_VERSION peer may
            # emit kinds this coordinator predates

    def _on_heartbeat(self, link: _WorkerLink, message: Message) -> None:
        now = time.time()
        sent_at = message.get("sent_at")
        lag_ms = max(0.0, (now - sent_at) * 1e3) if sent_at is not None else 0.0
        with self._net_lock:
            link.last_heartbeat = now
            link.last_lag_ms = lag_ms
            link.stats = dict(message.get("stats") or {})
        self.metrics.counter("net.heartbeats").inc()
        self.metrics.histogram("net.heartbeat_lag_ms").observe(lag_ms)

    # -- dispatch -----------------------------------------------------------
    def _cluster_idle(self) -> bool:
        """Closed, drained and nothing in flight: workers may shut down."""
        if not self.queue.closed or self.queue.depth():
            return False
        with self._net_lock:
            inflight = sum(len(link.inflight) for link in self._links.values())
            return inflight == 0 and self._collecting == 0

    def _pick_worker(self) -> Optional[_WorkerLink]:
        """The least-loaded live worker with free credit, or ``None``."""
        with self._net_lock:
            candidates = [
                link for link in self._links.values()
                if link.alive and len(link.inflight) < link.credit
            ]
            if not candidates:
                return None
            return min(
                candidates,
                key=lambda link: (len(link.inflight), link.dispatches),
            )

    def _dispatch_loop(self) -> None:
        """Drain the queue into worker credit windows (single dispatcher).

        The ``_collecting`` guard brackets pop -> collect -> send so
        :meth:`_cluster_idle` cannot report a drained cluster while a
        popped batch is between the queue and a link's in-flight table.
        """
        while not self._stop_dispatch.is_set():
            if not self.queue.wait_nonempty(self.pull_wait_s):
                continue
            if self._pick_worker() is None:
                # Traffic is waiting but every credit window is full (or no
                # worker is up yet): block until results/registration free
                # capacity rather than spinning on the queue head.
                self.metrics.counter("net.credit_stalls").inc()
                self._dispatch_wake.wait(self.pull_wait_s)
                self._dispatch_wake.clear()
                continue
            with self._net_lock:
                self._collecting += 1
            try:
                first = self.queue.pop(timeout=0.01)
                if first is None:
                    continue
                batch = self.batcher.collect(self.queue, first)
                batch = self._short_circuit(batch)
                if not batch:
                    continue
                link = self._pick_worker()
                if link is None:
                    # Credit vanished while collecting (the worker died);
                    # hand the batch back in order for the next pick.
                    for request in reversed(batch):
                        self.queue.requeue(request)
                    continue
                try:
                    self._send_batch(link, batch)
                except _LINK_ERRORS as error:
                    # _send_batch registered the in-flight entry first, so
                    # losing the worker re-queues the batch — never lost.
                    self._lose_worker(link, error)
            finally:
                with self._net_lock:
                    self._collecting -= 1

    def _short_circuit(self, batch: List[InferenceRequest]) -> List[InferenceRequest]:
        """Resolve requests already stored (e.g. replicated from a worker, or
        computed by a stalled worker after its batch was rescued) without
        dispatching them; returns the remainder."""
        pending: List[InferenceRequest] = []
        now = time.monotonic()
        for request in batch:
            hit = self.net_store.get(request.fingerprint)
            if hit is None:
                pending.append(request)
                continue
            self.metrics.counter("net.dispatch_short_circuits").inc()
            if resolve_future(request.future, hit):
                self.metrics.counter("serve.completed").inc()
                self.metrics.histogram("serve.latency_ms").observe(
                    (now - request.enqueued_at) * 1e3
                )
        return pending

    def _send_batch(self, link: _WorkerLink, batch: List[InferenceRequest]) -> None:
        batch_id = next(self._batch_ids)
        dispatched = DispatchedBatch(batch_id, batch, link.worker_id)
        # Open the dispatch span BEFORE the batch becomes rescuable (it is
        # registered in ``inflight`` below, and the wire copy of each trace
        # context must already parent under this span).  A rescue of this
        # batch links the span as a follow-from on the re-dispatch.
        ctxs = self.tracer.sampled(batch)
        if ctxs:
            follows: List[str] = []
            for ctx in ctxs:
                if ctx.follows is not None:
                    if ctx.follows not in follows:
                        follows.append(ctx.follows)
                    ctx.follows = None
            dispatched.span = self.tracer.open_span(
                "dispatch", ctxs, follows=follows,
                worker=link.worker_id, requests=len(batch),
            )
            for ctx in ctxs:
                ctx.parent_id = dispatched.span.id
        with self._net_lock:
            alive = link.alive
            if alive:
                link.inflight[batch_id] = dispatched
                link.dispatches += 1
        if not alive:
            # Lost between pick and dispatch: hand the batch straight back.
            self._mark_rescued(dispatched)
            for request in reversed(batch):
                self.queue.requeue(request)
            return
        link.connection.send(
            "batch",
            batch_id=batch_id,
            requests=[request_to_wire(request) for request in batch],
        )
        self.metrics.counter("net.dispatches").inc()

    def _mark_rescued(self, batch: DispatchedBatch) -> None:
        """Close a doomed dispatch span and chain its lineage forward.

        The span finishes with ``status="rescued"``, and every still-pending
        sampled trace records it as the follow-from of its *next* dispatch
        span; ``wait_from`` restarts the queue-wait clock at the requeue
        (``enqueued_at`` is latency accounting and is never restamped).
        """
        if batch.span is None:
            return
        batch.span.finish(status="rescued")
        now = time.monotonic()
        for request in batch.requests:
            trace = request.trace
            if trace is None or not trace.sampled or request.future.done():
                continue
            trace.follows = batch.span.id
            trace.wait_from = now
            trace.parent_id = trace.root_id

    # -- results ------------------------------------------------------------
    def _on_results(self, link: _WorkerLink, message: Message) -> None:
        batch_id = message["batch_id"]
        entries = message["results"]
        with self._net_lock:
            dispatched = link.inflight.pop(batch_id, None)
            link.results += 1
            link.local_hits += int(message.get("local_hits") or 0)
        now = time.monotonic()
        if dispatched is not None:
            self.metrics.histogram("net.batch_rtt_ms").observe(
                (now - dispatched.dispatched_at) * 1e3
            )
            # Stitch the worker's spans into the local traces (rebased onto
            # this process's clock) and close the dispatch span BEFORE any
            # future resolves — the root span finishes from the future's
            # done-callback, and a trace completes only once every span is
            # closed, so ordering here is what makes traces whole.  Late
            # frames (dispatched is None: the batch was already rescued)
            # skip adoption — their traces re-dispatched elsewhere.
            spans = message.get("spans")
            if spans:
                self.tracer.adopt(
                    spans, dispatched.dispatched_at, now,
                    remote_clock=message.get("span_clock"),
                )
            if dispatched.span is not None:
                dispatched.span.finish()
        # Late results (the batch was already rescued) still flow into the
        # store below: the re-queued requests' dispatch-time store check
        # then resolves them without a second engine pass.
        by_id = {
            request.id: request
            for request in (dispatched.requests if dispatched is not None else [])
        }
        completed = 0
        # Store + replicate the whole frame in one batched put BEFORE the
        # futures resolve (a caller reading cluster telemetry right after
        # its future fires must see the replication already counted).
        # Batching means the broadcast costs one store_put_many frame per
        # results frame instead of a frame (and a worker wakeup) per
        # result; adopt=True skips the store's defensive deep copy — the
        # entries were just decoded off the wire, so they are already this
        # process's private (array-frozen) copies.
        self.net_store.put_many(
            [(entry["fingerprint"], entry["result"]) for entry in entries
             if entry.get("error") is None],
            origin=link.worker_id,
            adopt=True,
        )
        for entry in entries:
            request = by_id.get(entry["id"])
            error = entry.get("error")
            if error is not None:
                self.metrics.counter("serve.errors").inc()
                if request is not None:
                    resolve_future(request.future, error=error)
                continue
            if request is not None:
                if resolve_future(request.future, entry["result"]):
                    completed += 1
                self.metrics.histogram("serve.latency_ms").observe(
                    (now - request.enqueued_at) * 1e3
                )
                self._deadline_rescued.discard(request.id)
        self.metrics.counter("serve.completed").inc(completed)
        self.metrics.counter("net.results").inc()
        self._dispatch_wake.set()  # credit freed on this link

    def _replicate(self, fingerprint: str, result: object,
                   origin: Optional[str] = None) -> None:
        """Publish one stored result to every live worker.

        ``origin`` — the worker that produced the result — is skipped: its
        local store already holds the entry (replication rides the blob
        dedup too, so even the skipped bytes would mostly have been digest
        references, but zero frames beat small frames).
        """
        self._replicate_many([(fingerprint, result)], origin=origin)

    def _replicate_many(self, pairs: Sequence[Tuple[str, object]],
                        origin: Optional[str] = None) -> None:
        """Queue a results frame's entries for write-behind replication.

        Replication is cache warming, not correctness — the coordinator's
        own store already short-circuits duplicates at dispatch time — so
        it must never compete with foreground traffic for the one thing a
        busy cluster is short on (CPU for pickling and wire pushes).
        Entries are buffered and flushed as one ``store_put_many`` frame
        per link when the cluster is quiet (synchronously, so telemetry
        read right after a lone request resolves already counts it), when
        the oldest entry exceeds ``replication_flush_s`` (the monitor
        ticks it), or at :meth:`close`.
        """
        entries = [
            {"fingerprint": fingerprint, "result": result}
            for fingerprint, result in pairs
        ]
        if not entries:
            return
        with self._net_lock:
            self._replication_pending.append((entries, origin))
            if self._replication_stamp is None:
                self._replication_stamp = time.monotonic()
        if self._replication_quiet():
            self._flush_replication()

    def _replication_quiet(self) -> bool:
        """No queued traffic, nothing in flight: replication may flush."""
        if self.queue.depth():
            return False
        with self._net_lock:
            inflight = sum(len(link.inflight) for link in self._links.values())
            return inflight == 0 and self._collecting == 0

    def _maybe_flush_replication(self) -> None:
        """Monitor hook: flush a quiet cluster's buffer, or one grown old."""
        with self._net_lock:
            stamp = self._replication_stamp
            if not self._replication_pending:
                return
        aged = stamp is not None and (
            time.monotonic() - stamp >= self.replication_flush_s
        )
        if aged or self._replication_quiet():
            self._flush_replication()

    def _flush_replication(self) -> None:
        """Broadcast every buffered entry now (one frame per link).

        Each link receives the entries every *other* worker produced —
        the origin-skip of the eager design, preserved across batching.
        ``net.store_replications`` still counts per entry per link.
        """
        with self._net_lock:
            pending = self._replication_pending
            self._replication_pending = []
            self._replication_stamp = None
            links = [link for link in self._links.values() if link.alive]
        if not pending or not links:
            return
        replicated = 0
        for link in links:
            entries = [
                entry
                for frame_entries, origin in pending
                if origin != link.worker_id
                for entry in frame_entries
            ]
            if not entries:
                continue
            try:
                link.connection.send("store_put_many", entries=entries)
                replicated += len(entries)
            except _LINK_ERRORS:
                pass  # the link's own handler thread will reap it
        self.metrics.counter("net.store_replications").inc(replicated)

    # -- liveness and rescue ------------------------------------------------
    def _monitor_loop(self) -> None:
        interval = min(0.05, self.liveness_timeout_s / 4)
        while not self._stop_monitor.wait(interval):
            self._reap_dead()
            self._rescue_stalled()
            self._maybe_flush_replication()

    def _reap_dead(self) -> None:
        now = time.time()
        horizon = now - self.liveness_timeout_s
        with self._net_lock:
            dead = []
            for link in self._links.values():
                if not link.alive:
                    continue
                if link.connection.sending:
                    # Mid-transfer — e.g. a multi-megabyte ``__blob__``
                    # answer, compression included — the link thread cannot
                    # read heartbeats off the socket, so their age says
                    # nothing about the worker.  The transfer itself is the
                    # proof of life; the fresh stamp gives the thread a full
                    # liveness window to drain the queued heartbeats once
                    # the send completes.
                    link.last_heartbeat = now
                    continue
                if link.last_heartbeat < horizon:
                    dead.append(link)
        for link in dead:
            self._lose_worker(
                link,
                TimeoutError(
                    f"worker {link.worker_id} sent no heartbeat for "
                    f"{self.liveness_timeout_s}s"
                ),
            )

    def _should_rescue_locked(self, batch: DispatchedBatch, now: float) -> bool:
        """Rescue policy for an in-flight batch; caller holds ``_net_lock``."""
        if (
            self.stall_timeout_s is not None
            and now - batch.dispatched_at >= self.stall_timeout_s
        ):
            return True
        if batch.deadline is not None and now >= batch.deadline - self.deadline_margin_s:
            # Deadline-aware rescue fires once per request: the trigger is
            # absolute time, so without this guard a re-dispatched batch
            # would be "rescued" again every monitor tick until the
            # deadline actually passes.
            pending = [
                request.id for request in batch.requests
                if not request.future.done()
            ]
            fresh = [rid for rid in pending if rid not in self._deadline_rescued]
            if fresh:
                self._deadline_rescued.update(pending)
                return True
        return False

    def _rescue_stalled(self) -> None:
        now = time.monotonic()
        rescued: List[Tuple[_WorkerLink, DispatchedBatch]] = []
        with self._net_lock:
            for link in self._links.values():
                if not link.alive:
                    continue
                for batch_id, batch in list(link.inflight.items()):
                    if self._should_rescue_locked(batch, now):
                        del link.inflight[batch_id]
                        rescued.append((link, batch))
        for link, batch in rescued:
            self._requeue_batch(link, batch)

    def _requeue_batch(self, link: _WorkerLink, batch: DispatchedBatch) -> None:
        """Re-dispatch a batch's unresolved requests at the queue head."""
        self._mark_rescued(batch)
        pending = [
            request for request in batch.requests if not request.future.done()
        ]
        # appendleft in reverse keeps the batch's FIFO order at the head, so
        # it re-collects as one compatible micro-batch.
        for request in reversed(pending):
            self.queue.requeue(request)
        if pending:
            self.metrics.counter("net.rescues").inc()
            self.metrics.counter("net.redispatched_requests").inc(len(pending))
            with self._net_lock:
                link.rescued_from += 1

    def _lose_worker(self, link: _WorkerLink, error: BaseException) -> None:
        with self._net_lock:
            if not link.alive:
                return
            link.alive = False
            orphaned = list(link.inflight.values())
            link.inflight.clear()
            shutting_down = self._shutting_down
        link.connection.close()
        self._refresh_worker_gauge()
        if not shutting_down:
            self.metrics.counter("net.workers_lost").inc()
        for batch in orphaned:
            self._requeue_batch(link, batch)
        self._dispatch_wake.set()  # the candidate set changed

    def _retire_worker(self, link: _WorkerLink) -> None:
        """A worker said goodbye; any leftovers are rescued, not lost."""
        with self._net_lock:
            if not link.alive:
                return
            link.alive = False
            orphaned = list(link.inflight.values())
            link.inflight.clear()
        link.connection.close()
        self._refresh_worker_gauge()
        for batch in orphaned:
            self._requeue_batch(link, batch)
        self._dispatch_wake.set()

    # -- observability ------------------------------------------------------
    def _refresh_worker_gauge(self) -> None:
        self.metrics.gauge("net.workers").set(float(self.live_workers()))

    def _workers_probe(self) -> Dict[str, object]:
        with self._net_lock:
            return {
                link.worker_id: {
                    "alive": link.alive,
                    "pid": link.pid,
                    "credit": link.credit,
                    "dispatches": link.dispatches,
                    "results": link.results,
                    "local_hits": link.local_hits,
                    "rescued_from": link.rescued_from,
                    "inflight": len(link.inflight),
                    "heartbeat_lag_ms": link.last_lag_ms,
                    "bytes_sent": link.connection.bytes_sent,
                    "bytes_received": link.connection.bytes_received,
                    "stats": dict(link.stats),
                }
                for link in self._links.values()
            }

    def _bytes_probe(self) -> Dict[str, object]:
        with self._net_lock:
            links = list(self._links.values())
        sent = received = 0
        sent_by_kind: Dict[str, float] = {}
        received_by_kind: Dict[str, float] = {}
        for link in links:
            sent += link.connection.bytes_sent
            received += link.connection.bytes_received
            by_kind = link.connection.bytes_by_kind()
            for kind, count in by_kind["sent"].items():
                sent_by_kind[kind] = sent_by_kind.get(kind, 0.0) + count
            for kind, count in by_kind["received"].items():
                received_by_kind[kind] = received_by_kind.get(kind, 0.0) + count
        requests = self.metrics.counter("serve.requests").value
        return {
            "sent": float(sent),
            "received": float(received),
            "sent_by_kind": sent_by_kind,
            "received_by_kind": received_by_kind,
            # lifetime wire cost of one admitted request, both directions —
            # the cluster-level figure bench_cluster derives per wave
            "per_request": float(sent + received) / requests if requests else 0.0,
        }

    def _blob_probe(self) -> Dict[str, float]:
        """Cluster blob-cache effectiveness: coordinator-side inbound stats
        plus the worker-side counters each heartbeat carries."""
        with self._net_lock:
            links = list(self._links.values())
            worker_stats = [dict(link.stats) for link in links]
        hits = misses = saved = 0
        for link in links:
            inbound = link.connection.blob_stats
            hits += inbound["blob_hits"]
            misses += inbound["blob_misses"]
            saved += inbound["blob_bytes_saved"]
        for stats in worker_stats:
            hits += int(stats.get("blob_hits") or 0)
            misses += int(stats.get("blob_misses") or 0)
            saved += int(stats.get("blob_bytes_saved") or 0)
        cache = self.blob_cache.stats()
        return {
            "hits": float(hits),
            "misses": float(misses),
            "bytes_saved": float(saved),
            "cache_entries": cache["entries"],
            "cache_bytes": cache["bytes"],
            "cache_evictions": cache["evictions"],
        }

    # -- lifecycle ----------------------------------------------------------
    def _wait_drained(self, timeout: float) -> bool:
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            if self._cluster_idle():
                return True
            time.sleep(0.02)
        return False

    def close(self, drain: bool = True) -> None:
        """Drain (by default), shut every worker down, release the port.

        ``drain=True`` waits — bounded by ``drain_timeout_s`` — until the
        queue is empty and no batch is in flight (rescues keep running
        throughout, so a worker dying mid-drain cannot wedge it), then
        broadcasts ``shutdown``.  ``drain=False`` fails queued requests
        with :class:`~repro.serve.queue.ServerClosed` immediately.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self.queue.close()
        if drain:
            self._wait_drained(self.drain_timeout_s)
        else:
            cancelled = self.queue.cancel_pending()
            self.metrics.counter("serve.cancelled").inc(cancelled)
        self._stop_dispatch.set()
        self._dispatch_wake.set()
        # Deliver any write-behind replication still buffered before the
        # shutdown broadcast: workers must not lose cache entries to timing.
        self._flush_replication()
        with self._net_lock:
            self._shutting_down = True
            links = list(self._links.values())
        self._stop_monitor.set()
        # Closing a listening socket does not wake a thread blocked in
        # accept(); shutting it down first does, so the accept thread exits
        # now instead of idling out the join timeout below.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        for link in links:
            if link.alive:
                try:
                    link.connection.send("shutdown")
                except _LINK_ERRORS:
                    pass
        # Give workers a moment to say goodbye, then cut the cords so every
        # handler thread unblocks.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and self.live_workers():
            time.sleep(0.02)
        for link in links:
            link.connection.close()
        for link in links:
            if link.thread is not None:
                link.thread.join(timeout=5.0)
        self._accept_thread.join(timeout=5.0)
        self._monitor_thread.join(timeout=5.0)
        self._dispatch_thread.join(timeout=5.0)
        if self._owns_session:
            self.session.close()
