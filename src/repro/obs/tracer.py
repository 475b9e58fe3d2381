"""A stdlib-only distributed span tracer for the serving stack.

One request admitted by :class:`~repro.serve.server.InferenceServer` (or its
distributed subclass, :class:`~repro.net.coordinator.Coordinator`) becomes
one **trace**: a tree of timed spans on :func:`time.monotonic` clocks.

* The server opens the **root span** at admission and finishes it from the
  request future's done-callback — so every resolution path (normal
  completion, store short-circuit, deadline expiry, error, cancellation)
  closes the root, and a trace can never leak open because a request took
  an unusual exit.
* :class:`~repro.serve.batcher.MicroBatcher` records ``queue_wait`` /
  ``batch_assembly`` child spans while collecting and wraps execution in an
  ``engine_pass`` span (with per-layer ``forward:<name>`` and
  ``layer:<name>`` children when :attr:`Tracer.profile_layers` is on).
* The :class:`~repro.net.coordinator.Coordinator` opens a ``dispatch`` span
  per shipped batch; the :class:`TraceContext` rides the v2 wire inside the
  request dicts, the worker's ``worker_execute`` / engine spans come back on
  the results frame, and :meth:`Tracer.adopt` rebases their clock into the
  coordinator's so the whole cross-host trace reads on one timeline.
  Rescued batches link the original dispatch span as a **follow-from**
  (the ``follows`` field), preserving re-dispatch lineage.

Cost discipline: a disabled tracer (the default) reduces every hook to one
attribute check — :meth:`Tracer.span` returns the shared :data:`NULL_SPAN`
singleton and :meth:`Tracer.admit` returns immediately — which is what
keeps the tracing-off overhead under the 2% bar ``benchmarks/bench_trace.py``
gates.  Completed traces land in a bounded ring buffer
(:class:`TraceCollector`); per-trace sampling (``sample=0.1`` traces one
request in ten) bounds the cost of always-on tracing in production.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "NULL_SPAN",
    "OpenSpan",
    "Span",
    "STAGE_NAMES",
    "TraceCollector",
    "TraceContext",
    "Tracer",
]

#: Span names fed into the ``serve.stage_latency.*`` histogram family.
#: Per-layer spans (``layer:*``) are deliberately excluded — one histogram
#: per network layer would explode the registry.
STAGE_NAMES = (
    "request",
    "queue_wait",
    "batch_assembly",
    "engine_pass",
    "dispatch",
    "worker_execute",
)

_SPAN_IDS = itertools.count(1)


def _new_id() -> str:
    """A span/trace id unique across every process of a cluster.

    The pid prefix disambiguates coordinator and worker processes (each has
    its own counter); no RNG is involved, so ids are deterministic per
    process and cheap.
    """
    return f"{os.getpid():x}-{next(_SPAN_IDS):x}"


class TraceContext:
    """The per-request trace state that rides the wire.

    Attached to :class:`~repro.serve.queue.InferenceRequest.trace` at
    admission and shipped to workers inside the v2 ``batch`` frame
    (``_REQUEST_WIRE_FIELDS``), so remote spans stitch into the same trace.

    ``parent_id`` is the span new children should attach under *right now*
    (the root at admission, the dispatch span while on a worker);
    ``follows`` carries the previous dispatch span's id across a rescue
    re-dispatch; ``wait_from`` restarts the queue-wait clock after a
    rescue without touching ``enqueued_at`` (latency accounting owns that).
    """

    __slots__ = (
        "trace_id", "root_id", "parent_id", "sampled", "follows", "wait_from",
    )

    def __init__(self, trace_id: str, root_id: str, parent_id: str,
                 sampled: bool = True, follows: Optional[str] = None,
                 wait_from: Optional[float] = None):
        self.trace_id = trace_id
        self.root_id = root_id
        self.parent_id = parent_id
        self.sampled = sampled
        self.follows = follows
        self.wait_from = wait_from

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext(trace={self.trace_id}, parent={self.parent_id}, "
            f"sampled={self.sampled})"
        )


class _NullSpan:
    """The shared do-nothing span of a disabled (or unsampled) path.

    One instance serves every call site: entering/exiting and ``finish()``
    are no-ops and ``id`` is ``None``, so instrumented code never branches
    on whether tracing is on.
    """

    __slots__ = ()

    id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def finish(self, status: str = "ok", **attrs) -> None:
        return None


#: The singleton every disabled hook returns (identity-checked by tests).
NULL_SPAN = _NullSpan()


class TraceCollector:
    """Bounded, thread-safe assembly point for span records.

    A trace is *open* while any of its spans is unfinished; it **completes**
    when its root span has finished and its open-span count is zero, at
    which point it moves into a bounded ring buffer of finished traces
    (``deque(maxlen=capacity)`` — the oldest completed trace is dropped,
    and counted, when the buffer is full).  Worker processes never hold a
    root, so their records are harvested with :meth:`drain` instead and
    shipped home on the results frame.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: trace_id -> {"spans": [...], "open": int, "root_done": bool}
        self._traces: Dict[str, Dict[str, object]] = {}
        self._done: deque = deque(maxlen=capacity)
        self._spans_total = 0
        self._completed_total = 0
        self._dropped_total = 0
        self._late_total = 0

    # -- record intake ------------------------------------------------------
    def _state_locked(self, trace_id: str) -> Dict[str, object]:
        state = self._traces.get(trace_id)
        if state is None:
            state = {"spans": [], "open": 0, "root_done": False}
            self._traces[trace_id] = state
        return state

    def begin(self, trace_id: str) -> None:
        """Count one span opened on ``trace_id``."""
        with self._lock:
            state = self._state_locked(trace_id)
            state["open"] += 1

    def finish(self, record: Dict[str, object], root: bool = False) -> None:
        """File one finished span record (opened earlier via :meth:`begin`)."""
        with self._lock:
            state = self._state_locked(record["trace_id"])
            state["spans"].append(record)
            state["open"] -= 1
            if root:
                state["root_done"] = True
            self._spans_total += 1
            self._maybe_complete_locked(record["trace_id"], state)

    def record(self, record: Dict[str, object]) -> None:
        """File an already-closed interval (no open/close bracketing)."""
        with self._lock:
            state = self._state_locked(record["trace_id"])
            state["spans"].append(record)
            self._spans_total += 1

    def adopt(self, records: Iterable[Dict[str, object]]) -> int:
        """File records produced in another process (already rebased).

        Records for traces this collector is not currently assembling —
        late results of an already-completed (or never-sampled) trace — are
        dropped and counted, never filed as orphans.  Returns the number
        adopted.
        """
        adopted = 0
        with self._lock:
            for record in records:
                state = self._traces.get(record["trace_id"])
                if state is None:
                    self._late_total += 1
                    continue
                state["spans"].append(record)
                self._spans_total += 1
                adopted += 1
        return adopted

    def _maybe_complete_locked(self, trace_id: str,
                               state: Dict[str, object]) -> None:
        if not state["root_done"] or state["open"] > 0:
            return
        del self._traces[trace_id]
        if len(self._done) == self._done.maxlen:
            self._dropped_total += 1
        self._done.append({"trace_id": trace_id, "spans": state["spans"]})
        self._completed_total += 1

    # -- harvest ------------------------------------------------------------
    def drain(self) -> List[Dict[str, object]]:
        """Remove and return every finished record (the worker-side harvest).

        Worker traces have no root, so they never complete locally; the
        worker drains after each batch and ships the records home.  Trace
        states left empty (no spans, nothing open) are deleted.
        """
        with self._lock:
            harvested: List[Dict[str, object]] = []
            for trace_id in list(self._traces):
                state = self._traces[trace_id]
                harvested.extend(state["spans"])
                state["spans"] = []
                if state["open"] == 0 and not state["root_done"]:
                    del self._traces[trace_id]
            return harvested

    def completed(self, flush: bool = False) -> List[Dict[str, object]]:
        """The completed traces currently retained (oldest first).

        ``flush=True`` also empties the ring buffer, so periodic exporters
        never ship the same trace twice.
        """
        with self._lock:
            traces = list(self._done)
            if flush:
                self._done.clear()
            return traces

    def stats(self) -> Dict[str, float]:
        """Probe payload for the ``obs.trace`` telemetry entry."""
        with self._lock:
            return {
                "open_traces": float(len(self._traces)),
                "open_spans": float(
                    sum(state["open"] for state in self._traces.values())
                ),
                "completed": float(self._completed_total),
                "retained": float(len(self._done)),
                "dropped": float(self._dropped_total),
                "late": float(self._late_total),
                "spans": float(self._spans_total),
                "capacity": float(self.capacity),
            }


class Span:
    """A context-manager span over one or more sampled trace contexts.

    One ``with`` block produces one record *per covered trace* (a coalesced
    micro-batch executes once but belongs to every member request's trace),
    each attached under that trace's current ``parent_id``.  While the block
    runs, every covered context's ``parent_id`` points at this span, so
    nested ``with`` spans (and :meth:`Tracer.record_span` intervals) parent
    correctly; the previous parents are restored on exit.
    """

    __slots__ = ("_tracer", "name", "id", "_ctxs", "_saved", "start", "attrs")

    def __init__(self, tracer: "Tracer", name: str,
                 ctxs: Sequence[TraceContext], attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.id = _new_id()
        self._ctxs = ctxs
        self._saved: List[str] = []
        self.start = 0.0
        self.attrs = attrs

    def __enter__(self) -> "Span":
        self.start = time.monotonic()
        for ctx in self._ctxs:
            self._tracer.collector.begin(ctx.trace_id)
            self._saved.append(ctx.parent_id)
            ctx.parent_id = self.id
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.monotonic()
        status = "ok" if exc_type is None else "error"
        for ctx, saved in zip(self._ctxs, self._saved):
            ctx.parent_id = saved
            self._tracer.emit(
                self._record(ctx, saved, end, status), root=False
            )
        return False

    def _record(self, ctx: TraceContext, parent: str, end: float,
                status: str) -> Dict[str, object]:
        return {
            "trace_id": ctx.trace_id,
            "span_id": self.id,
            "parent_id": parent,
            "name": self.name,
            "start": self.start,
            "end": end,
            "status": status,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
            "attrs": self.attrs,
            "follows": [],
        }


class OpenSpan:
    """An explicitly-finished span for intervals that cross threads.

    The root span (opened at admission, finished by the request future's
    done-callback) and the coordinator's dispatch span (opened by the
    dispatcher thread, finished by the link thread or the rescue path)
    cannot be ``with`` blocks — their open and close happen on different
    threads.  This is the sanctioned escape hatch: the ``span-discipline``
    lint rule polices ``tracer.span(...)`` call sites only, precisely so
    these two can exist without suppressions.  ``finish`` is idempotent
    (first outcome wins), mirroring
    :func:`~repro.serve.queue.resolve_future`.
    """

    __slots__ = (
        "_tracer", "name", "id", "_ctxs", "_parents", "start", "attrs",
        "follows", "_root", "_finished",
    )

    def __init__(self, tracer: "Tracer", name: str,
                 ctxs: Sequence[TraceContext], parents: List[Optional[str]],
                 attrs: Dict[str, object], follows: List[str],
                 root: bool = False, span_id: Optional[str] = None):
        self._tracer = tracer
        self.name = name
        self.id = span_id if span_id is not None else _new_id()
        self._ctxs = ctxs
        self._parents = parents
        self.start = time.monotonic()
        self.attrs = attrs
        self.follows = follows
        self._root = root
        self._finished = threading.Event()
        for ctx in ctxs:
            tracer.collector.begin(ctx.trace_id)

    def finish(self, status: str = "ok", **attrs) -> None:
        if self._finished.is_set():
            return
        self._finished.set()
        end = time.monotonic()
        if attrs:
            self.attrs = dict(self.attrs, **attrs)
        for ctx, parent in zip(self._ctxs, self._parents):
            self._tracer.emit(
                {
                    "trace_id": ctx.trace_id,
                    "span_id": self.id,
                    "parent_id": parent,
                    "name": self.name,
                    "start": self.start,
                    "end": end,
                    "status": status,
                    "pid": os.getpid(),
                    "thread": threading.current_thread().name,
                    "attrs": self.attrs,
                    "follows": list(self.follows),
                },
                root=self._root,
            )


class Tracer:
    """The facade instrumented components call (see module docstring).

    Parameters
    ----------
    enabled:
        Master switch.  Off (the default), every hook is a near-free no-op.
    sample:
        Per-trace sampling probability in ``[0, 1]``: the admission-time
        coin flip decides once per request; child spans inherit the
        decision through the :class:`TraceContext`.
    capacity:
        Ring-buffer bound on retained completed traces.
    profile_layers:
        Record one ``layer:<name>`` child span per engine layer inside
        every ``engine_pass`` (off by default: per-layer timing costs one
        clock read per layer).
    seed:
        Seed of the sampling RNG — sampling decisions are reproducible,
        per the repository's seeded-RNG law.
    """

    def __init__(self, enabled: bool = False, sample: float = 1.0,
                 capacity: int = 256, profile_layers: bool = False,
                 seed: int = 0):
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        self.enabled = enabled
        self.sample = sample
        self.profile_layers = profile_layers
        self.collector = TraceCollector(capacity=capacity)
        self._sample_rng = random.Random(seed)
        self._metrics = None

    # -- wiring -------------------------------------------------------------
    def bind_metrics(self, metrics) -> None:
        """Feed finished stage spans into ``serve.stage_latency.*`` histograms."""
        self._metrics = metrics

    # -- admission ----------------------------------------------------------
    def admit(self, request) -> Optional[TraceContext]:
        """Open a root span for ``request`` (the sampling decision point).

        Attaches a :class:`TraceContext` to ``request.trace`` and arranges
        the root span to finish from the future's done-callback — covering
        every resolution path, including the store short-circuit that never
        enqueues and the deadline expiry that never executes.
        """
        if not self.enabled:
            return None
        if self.sample < 1.0 and self._sample_rng.random() >= self.sample:
            return None
        root_id = _new_id()
        ctx = TraceContext(
            trace_id=_new_id(), root_id=root_id, parent_id=root_id,
        )
        root = OpenSpan(
            self, "request", (ctx,), parents=[None],
            attrs={"mode": request.mode, "request": request.id},
            follows=[], root=True, span_id=root_id,
        )
        request.trace = ctx
        request.future.add_done_callback(
            lambda future: root.finish(status=_future_status(future))
        )
        return ctx

    # -- span entry points --------------------------------------------------
    def sampled(self, requests: Iterable) -> List[TraceContext]:
        """The sampled trace contexts of an iterable of requests."""
        if not self.enabled:
            return []
        return [
            request.trace for request in requests
            if request.trace is not None and request.trace.sampled
        ]

    def span(self, name: str, ctxs: Sequence[TraceContext], **attrs):
        """A context-manager span over ``ctxs`` (the only sanctioned opener).

        Returns the shared :data:`NULL_SPAN` when the tracer is disabled or
        no context is sampled, so the instrumented hot path costs one truth
        test.  Use ``with`` — the ``span-discipline`` lint rule rejects
        bare ``start()``/``finish()`` pairs on span call sites.
        """
        if not self.enabled or not ctxs:
            return NULL_SPAN
        return Span(self, name, tuple(ctxs), attrs)

    def open_span(self, name: str, ctxs: Sequence[TraceContext],
                  follows: Optional[List[str]] = None, **attrs):
        """An explicitly-finished span for cross-thread intervals.

        See :class:`OpenSpan`; returns :data:`NULL_SPAN` (whose ``finish``
        is a no-op) when nothing is sampled.
        """
        if not self.enabled or not ctxs:
            return NULL_SPAN
        return OpenSpan(
            self, name, tuple(ctxs),
            parents=[ctx.parent_id for ctx in ctxs], attrs=attrs,
            follows=list(follows) if follows else [],
        )

    def record_span(self, name: str, ctxs: Sequence[TraceContext],
                    start: float, end: float,
                    parent_id: Optional[str] = None, **attrs) -> None:
        """File an already-elapsed interval (e.g. ``queue_wait``) per context."""
        if not self.enabled or not ctxs:
            return
        span_id = _new_id()
        pid = os.getpid()
        thread = threading.current_thread().name
        for ctx in ctxs:
            record = {
                "trace_id": ctx.trace_id,
                "span_id": span_id,
                "parent_id": parent_id if parent_id is not None else ctx.parent_id,
                "name": name,
                "start": start,
                "end": end,
                "status": "ok",
                "pid": pid,
                "thread": thread,
                "attrs": attrs,
                "follows": [],
            }
            self.collector.record(record)
            self._observe_stage(record)

    # -- record plumbing ----------------------------------------------------
    def emit(self, record: Dict[str, object], root: bool = False) -> None:
        """File one finished record and feed the stage-latency telemetry."""
        self.collector.finish(record, root=root)
        self._observe_stage(record)

    def _observe_stage(self, record: Dict[str, object]) -> None:
        metrics = self._metrics
        if metrics is None or record["name"] not in STAGE_NAMES:
            return
        metrics.histogram(f"serve.stage_latency.{record['name']}").observe(
            (record["end"] - record["start"]) * 1e3
        )

    # -- cross-process stitching -------------------------------------------
    def drain(self) -> List[Dict[str, object]]:
        """Harvest finished records for shipment (worker side)."""
        if not self.enabled:
            return []
        return self.collector.drain()

    def adopt(self, records: Sequence[Dict[str, object]],
              sent: float, received: float,
              remote_clock: Optional[Sequence[float]] = None) -> int:
        """Stitch a worker's records into local traces on the local clock.

        ``sent``/``received`` bracket the batch round-trip on *this*
        process's monotonic clock; ``remote_clock`` is the worker's
        ``(first, last)`` monotonic stamps for the same interval.  The
        symmetric offset estimate ``((sent + received) - (first + last)) / 2``
        rebases each record, and rebased intervals are clamped into
        ``[sent, received]`` — monotonic clocks of different hosts share no
        epoch, and the clamp guarantees remote spans nest inside the local
        dispatch span whatever the skew.  Stage latencies observed remotely
        feed the same ``serve.stage_latency.*`` family here.
        """
        if not self.enabled or not records:
            return 0
        offset = 0.0
        if remote_clock is not None:
            first, last = remote_clock
            offset = ((sent + received) - (first + last)) / 2.0
        span = max(received - sent, 0.0)
        rebased = []
        for record in records:
            start = min(max(record["start"] + offset, sent), received)
            end = min(max(record["end"] + offset, start), received)
            record = dict(record, start=start, end=end,
                          attrs=dict(record["attrs"], rtt_s=span))
            rebased.append(record)
        adopted = self.collector.adopt(rebased)
        for record in rebased:
            self._observe_stage(record)
        return adopted

    # -- export -------------------------------------------------------------
    def completed(self, flush: bool = False) -> List[Dict[str, object]]:
        """The completed traces retained in the ring buffer."""
        return self.collector.completed(flush=flush)

    def stats(self) -> Dict[str, float]:
        """The ``obs.trace`` probe payload."""
        data = self.collector.stats()
        data["enabled"] = 1.0 if self.enabled else 0.0
        data["sample"] = float(self.sample)
        return data


def _future_status(future) -> str:
    if future.cancelled():
        return "cancelled"
    return "error" if future.exception() is not None else "ok"


#: Thread-local per-layer profiling hook installed by :func:`layer_profiler`.
#: Thread-local because concurrent server worker threads run independent
#: engine passes — one traced batch must not time another thread's layers.
_LAYER_PROFILER = threading.local()


@contextmanager
def layer_profiler(hook: Optional[Callable[[str, float, float, str], None]]):
    """Install a per-layer timing hook for engine passes on this thread.

    While active, ``hook(layer_name, start, end, stage)`` (``time.monotonic``
    seconds) is called once per layer by two loops: the golden-model forward
    pass (:meth:`SpikingNetwork.forward_batch
    <repro.snn.network.SpikingNetwork.forward_batch>`, ``stage="forward"``,
    once per layer and timestep) and the costing loop
    (:meth:`SpikeStreamInference.run_workloads
    <repro.core.pipeline.SpikeStreamInference.run_workloads>`,
    ``stage="layer"``, once per layer workload).  ``None`` uninstalls (a
    no-op guard, so callers need not branch on whether profiling is
    enabled).  Each loop reads the hook once per pass
    (:func:`layer_profiler_hook`), so a pass without a hook pays one
    attribute read and nothing else.
    """
    previous = getattr(_LAYER_PROFILER, "hook", None)
    _LAYER_PROFILER.hook = hook
    try:
        yield
    finally:
        _LAYER_PROFILER.hook = previous


def layer_profiler_hook() -> Optional[Callable[[str, float, float, str], None]]:
    """The hook :func:`layer_profiler` installed on this thread, or ``None``."""
    return getattr(_LAYER_PROFILER, "hook", None)


def layer_hook(tracer: Tracer, ctxs: Sequence[TraceContext],
               parent_id: Optional[str]) -> Callable[[str, float, float, str], None]:
    """The per-layer profiling callback ``engine_pass`` installs.

    Files one ``<stage>:<name>`` span per call: ``forward:conv1`` for the
    forward pass, ``layer:conv1`` for its costing.  Bound once per batch
    (not per layer) so each layer loop pays one indirect call per layer,
    nothing more.
    """

    def record(name: str, start: float, end: float, stage: str) -> None:
        tracer.record_span(
            f"{stage}:{name}", ctxs, start, end, parent_id=parent_id
        )

    return record
