"""A worker host process for the distributed serving tier.

:class:`NetWorker` is the execution side of the :mod:`repro.net` protocol:
it connects to a :class:`~repro.net.coordinator.Coordinator`, registers
(advertising its *credit window* — how many batches the coordinator may
keep in flight on this link), heartbeats on a daemon thread, announces
readiness with a single ``pull``, and then serves a pushed stream of work:

* ``batch`` — rebuild the :class:`~repro.serve.queue.InferenceRequest`
  objects from their wire dicts, check the *local* result store first (a
  replicated hit skips the engine entirely), run the misses through this
  worker's own :class:`~repro.serve.batcher.MicroBatcher` in one batched
  pass, store, and stream the results back.  Results are bit-for-bit what
  the coordinator's session would have produced: configs, seeds, networks
  and frames cross the wire losslessly and the engines are deterministic.
  With ``credit > 1`` the next batch is usually already queued in the
  socket buffer when results go out — compute overlaps wire latency
  instead of alternating with it.
* ``store_put`` / ``store_put_many`` — replication traffic from the
  coordinator (results other workers computed, one entry or a whole
  results frame's worth); applied to the local store without
  re-publishing.
* ``idle`` / ``shutdown`` — keepalive no-op / drain-and-exit.

Each worker owns a :class:`~repro.net.blob.BlobCache`: network weight
panels and other large arrays arrive as content digests and are fetched
over the wire only on first sight (``__need_blob__`` handled inside
:class:`~repro.net.framing.FramedConnection`), so repeat batches against
the same network cost KBs, not hundreds of MBs.

The worker runs equally as an in-process thread (tests drive and kill it
directly) or as a real OS process via :func:`spawn_worker` /
``repro.cli worker --connect HOST:PORT``.

Chaos hooks ``chaos_hang_after`` / ``chaos_exit_after`` make a worker hang
or die mid-batch after N batches — the levers the rescue tests and the
smoke cluster step pull to prove dead- and stalled-worker re-dispatch
(including a full credit window of outstanding batches).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import Tracer
from ..serve.batcher import MicroBatcher
from ..session import Session
from .blob import BlobCache
from .framing import FrameError, FramedConnection, Message, request_from_wire
from .store import ReplicatedResultStore

__all__ = ["DEFAULT_CREDIT", "NetWorker", "spawn_worker"]

_LINK_ERRORS = (FrameError, OSError)

#: Default credit window a worker advertises at registration: how many
#: batches the coordinator may keep outstanding on the link.  Two is enough
#: to hide one wire round-trip behind compute without ballooning rescue
#: cost when a worker dies with a full window.
DEFAULT_CREDIT = 2


def _wire_error(error: BaseException) -> BaseException:
    """An exception safe to pickle onto the wire.

    Most exceptions pickle fine and propagate unchanged; one holding an
    unpicklable payload degrades to a ``RuntimeError`` carrying its repr —
    the caller still gets *an* exception, never a corrupted stream.
    """
    import pickle

    try:
        pickle.dumps(error)
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


class NetWorker:
    """One worker endpoint (see module docstring).

    Parameters
    ----------
    address:
        The coordinator's ``(host, port)``.
    session:
        The session whose engines execute batches.  Omitted: the worker
        creates (and owns, and closes) a default one.
    worker_id:
        Requested registration name; the coordinator may uniquify it.
    heartbeat_interval_s:
        Fallback heartbeat cadence; the coordinator's ``registered`` ack
        overrides it so the whole cluster agrees.
    credit:
        Advertised credit window (outstanding batches the coordinator may
        push to this worker); clamped to at least 1.
    blob_threshold / wire_compress:
        Wire-protocol knobs forwarded to this worker's
        :class:`~repro.net.framing.FramedConnection` — the array size at
        which payloads turn into content digests, and whether buffers are
        deflated on send.
    chaos_hang_after / chaos_exit_after:
        Testing levers: after this many batches have *started*, hang
        forever (heartbeats continue — a stalled worker) or hard-exit the
        process (a dead worker).  ``None`` disables.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        session: Optional[Session] = None,
        worker_id: Optional[str] = None,
        heartbeat_interval_s: float = 0.2,
        connect_timeout_s: float = 10.0,
        credit: int = DEFAULT_CREDIT,
        blob_threshold: Optional[int] = None,
        wire_compress: bool = False,
        chaos_hang_after: Optional[int] = None,
        chaos_exit_after: Optional[int] = None,
    ):
        self.address = address
        self._owns_session = session is None
        self.session = session if session is not None else Session()
        self.requested_id = worker_id
        self.worker_id = worker_id or ""
        self.heartbeat_interval_s = heartbeat_interval_s
        self.connect_timeout_s = connect_timeout_s
        self.credit = max(1, int(credit))
        self.blob_threshold = blob_threshold
        self.wire_compress = wire_compress
        self.blob_cache = BlobCache()
        self.chaos_hang_after = chaos_hang_after
        self.chaos_exit_after = chaos_exit_after
        self.store = ReplicatedResultStore(self.session.store)
        # Always-on: with no sampled trace contexts in a batch every hook
        # degrades to the null span, so an untraced cluster pays nothing —
        # and a traced coordinator gets worker spans with zero worker-side
        # configuration.  Spans are drained per batch and shipped home on
        # the results frame (the coordinator rebases their clock).
        self.tracer = Tracer(enabled=True)
        self.batcher = MicroBatcher(self.session, tracer=self.tracer)
        self.counters: Dict[str, int] = {
            "batches": 0,
            "requests": 0,
            "local_hits": 0,
        }
        self._stop = threading.Event()
        self._connection: Optional[FramedConnection] = None
        self._heartbeat_thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------
    def run(self) -> Dict[str, int]:
        """Serve until the coordinator shuts the cluster down.

        Returns the worker's counter snapshot (batches, requests served,
        local store hits).
        """
        connection = FramedConnection.connect(
            self.address,
            timeout=self.connect_timeout_s,
            blob_cache=self.blob_cache,
            blob_threshold=self.blob_threshold,
            compress=self.wire_compress,
        )
        self._connection = connection
        try:
            connection.send(
                "register", worker_id=self.requested_id, pid=os.getpid(),
                credit=self.credit,
            )
            ack = connection.recv()
            if ack.kind != "registered":
                raise FrameError(f"expected a registered ack, got {ack.kind!r}")
            self.worker_id = str(ack["worker_id"])
            interval = ack.get("heartbeat_interval_s")
            if interval is not None:
                self.heartbeat_interval_s = float(interval)
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"repro-net-heartbeat-{self.worker_id}",
                daemon=True,
            )
            self._heartbeat_thread.start()
            self._serve(connection)
            try:
                connection.send("goodbye", worker_id=self.worker_id)
            except _LINK_ERRORS:
                pass
        except _LINK_ERRORS:
            if not self._stop.is_set():
                raise
        finally:
            self._stop.set()
            connection.close()
            if self._heartbeat_thread is not None:
                self._heartbeat_thread.join(timeout=2.0)
            if self._owns_session:
                self.session.close()
        return dict(self.counters)

    def stop(self) -> None:
        """Abort the worker from another thread (tests; not the clean path)."""
        self._stop.set()
        if self._connection is not None:
            self._connection.close()

    # -- the protocol loop --------------------------------------------------
    def _serve(self, connection: FramedConnection) -> None:
        # One pull announces readiness; after that the coordinator pushes
        # work up to the advertised credit window, so the loop is
        # recv-driven.
        connection.send("pull", worker_id=self.worker_id)
        while not self._stop.is_set():
            message = self._next_work(connection)
            if message.kind == "idle":
                continue
            if message.kind == "shutdown":
                return
            if message.kind == "batch":
                self._handle_batch(connection, message)
            # unknown kinds: ignored (forward compatibility inside one
            # wire version)

    def _next_work(self, connection: FramedConnection) -> Message:
        """The next non-replication message; replication applies inline."""
        while True:
            message = connection.recv()
            if message.kind == "store_put":
                self.store.apply(message["fingerprint"], message["result"],
                                 adopt=True)
                continue
            if message.kind == "store_put_many":
                for entry in message["entries"]:
                    self.store.apply(entry["fingerprint"], entry["result"],
                                     adopt=True)
                continue
            return message

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval_s):
            try:
                connection = self._connection
                stats = dict(self.counters)
                stats.update(connection.blob_stats)
                stats["bytes_sent"] = connection.bytes_sent
                stats["bytes_received"] = connection.bytes_received
                connection.send(
                    "heartbeat",
                    worker_id=self.worker_id,
                    sent_at=time.time(),
                    stats=stats,
                )
            except _LINK_ERRORS:
                return

    # -- serve batches ------------------------------------------------------
    def _chaos(self) -> None:
        started = self.counters["batches"]
        if self.chaos_exit_after is not None and started > self.chaos_exit_after:
            os._exit(3)  # a dead worker: no goodbye, no flush, nothing
        if self.chaos_hang_after is not None and started > self.chaos_hang_after:
            # A stalled worker: the batch never finishes but heartbeats
            # keep flowing on their own thread.
            self._stop.wait()
            raise FrameError("chaos hang released by stop()")

    def _handle_batch(self, connection: FramedConnection, message: Message) -> None:
        received_at = time.monotonic()
        self.counters["batches"] += 1
        self._chaos()
        requests = [request_from_wire(data) for data in message["requests"]]
        self.counters["requests"] += len(requests)
        entries: List[Dict[str, object]] = []
        misses = []
        hits = 0
        for request in requests:
            hit = self.store.get(request.fingerprint)
            if hit is not None:
                hits += 1
                entries.append(
                    {"id": request.id, "fingerprint": request.fingerprint,
                     "result": hit, "error": None}
                )
            else:
                misses.append(request)
        self.counters["local_hits"] += hits
        if misses:
            ctxs = self.tracer.sampled(misses)
            try:
                with self.tracer.span(
                    "worker_execute", ctxs,
                    worker=self.worker_id, local_hits=hits,
                ):
                    results = self.batcher.execute(misses)
            except Exception as error:  # noqa: BLE001 — shipped to the caller
                wired = _wire_error(error)
                entries.extend(
                    {"id": request.id, "fingerprint": request.fingerprint,
                     "result": None, "error": wired}
                    for request in misses
                )
            else:
                for request, result in zip(misses, results):
                    self.store.put(request.fingerprint, result)
                    entries.append(
                        {"id": request.id, "fingerprint": request.fingerprint,
                         "result": result, "error": None}
                    )
        payload: Dict[str, object] = {
            "batch_id": message["batch_id"],
            "results": entries,
            "local_hits": hits,
        }
        # Tracing rides the results frame only when it produced something:
        # an untraced cluster's frames stay byte-identical to pre-tracing
        # builds.  span_clock brackets this worker's handling of the batch
        # on ITS monotonic clock so the coordinator can rebase the records
        # into its own (Tracer.adopt).
        spans = self.tracer.drain()
        if spans:
            payload["spans"] = spans
            payload["span_clock"] = (received_at, time.monotonic())
        connection.send("results", **payload)


def spawn_worker(
    address: Tuple[str, int],
    worker_id: Optional[str] = None,
    chaos_hang_after: Optional[int] = None,
    chaos_exit_after: Optional[int] = None,
    credit: Optional[int] = None,
    blob_threshold: Optional[int] = None,
    wire_compress: bool = False,
    extra_args: Sequence[str] = (),
    quiet: bool = False,
) -> "subprocess.Popen[bytes]":
    """Launch a worker OS process connected to ``address``.

    Runs ``python -m repro.cli worker --connect host:port`` with this
    interpreter and an environment whose ``PYTHONPATH`` is guaranteed to
    reach this very ``repro`` package, so it works from a source checkout
    without installation.  The caller owns the returned ``Popen`` (and
    should ``wait()`` or ``terminate()`` it).  ``quiet`` discards the
    worker's stdout — callers whose own stdout is a machine-parsed
    document (the ``--json`` benchmarks) must not let the workers'
    exit summaries interleave into it.
    """
    host, port = address
    argv = [
        sys.executable, "-m", "repro.cli", "worker",
        "--connect", f"{host}:{port}",
    ]
    if worker_id is not None:
        argv += ["--worker-id", worker_id]
    if chaos_hang_after is not None:
        argv += ["--chaos-hang-after", str(chaos_hang_after)]
    if chaos_exit_after is not None:
        argv += ["--chaos-exit-after", str(chaos_exit_after)]
    if credit is not None:
        argv += ["--credit", str(credit)]
    if blob_threshold is not None:
        argv += ["--blob-threshold", str(blob_threshold)]
    if wire_compress:
        argv += ["--wire-compress"]
    argv += list(extra_args)
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    return subprocess.Popen(
        argv, env=env,
        stdout=subprocess.DEVNULL if quiet else None,
    )
