"""Unit contracts for the span tracer, collector, and exporters.

The distributed stitching (coordinator + workers over real sockets) is
covered by ``tests/net/test_trace_rescue.py`` and the smoke ``obs`` step;
here we pin the local semantics: sampling, completion, ring-buffer bounds,
clock adoption, idempotent finish, wire picklability, and export formats.
"""

from __future__ import annotations

import io
import json
import pickle
import time

import pytest

from repro.obs import (
    NULL_SPAN,
    STAGE_NAMES,
    TraceCollector,
    TraceContext,
    Tracer,
    layer_hook,
    read_jsonl,
    to_chrome,
    to_jsonl,
    well_nested,
)
from repro.serve.metrics import MetricsRegistry


class FakeFuture:
    """The fragment of concurrent.futures.Future the tracer touches."""

    def __init__(self):
        self._callbacks = []
        self._done = False
        self._cancelled = False
        self._exception = None

    def add_done_callback(self, callback):
        self._callbacks.append(callback)

    def cancelled(self):
        return self._cancelled

    def exception(self):
        return self._exception

    def resolve(self, error=None, cancelled=False):
        self._done = True
        self._cancelled = cancelled
        self._exception = error
        for callback in self._callbacks:
            callback(self)


class FakeRequest:
    def __init__(self, request_id="req-0", mode="functional"):
        self.id = request_id
        self.mode = mode
        self.future = FakeFuture()
        self.trace = None
        self.enqueued_at = time.monotonic()


def traced_request(tracer, request_id="req-0"):
    request = FakeRequest(request_id)
    assert tracer.admit(request) is not None
    return request


# -- disabled path -----------------------------------------------------------

def test_disabled_tracer_is_inert():
    tracer = Tracer()
    request = FakeRequest()
    assert tracer.admit(request) is None
    assert request.trace is None
    assert tracer.sampled([request]) == []
    assert tracer.span("engine_pass", ()) is NULL_SPAN
    assert tracer.open_span("dispatch", ()) is NULL_SPAN
    assert tracer.drain() == []
    assert tracer.completed() == []


def test_null_span_is_a_shared_noop_singleton():
    tracer = Tracer(enabled=True)
    # Enabled but nothing sampled -> still the singleton, zero allocation.
    assert tracer.span("engine_pass", ()) is NULL_SPAN
    with NULL_SPAN as span:
        assert span.id is None
    NULL_SPAN.finish(status="rescued")  # no-op, never raises


# -- sampling ----------------------------------------------------------------

def test_sampling_is_seeded_and_deterministic():
    def decisions(seed):
        tracer = Tracer(enabled=True, sample=0.5, seed=seed)
        return [
            tracer.admit(FakeRequest(f"req-{i}")) is not None
            for i in range(64)
        ]

    first = decisions(7)
    assert first == decisions(7), "same seed must sample the same requests"
    assert first != decisions(8), "different seed must diverge"
    assert any(first) and not all(first)


def test_sample_bounds_validated():
    with pytest.raises(ValueError):
        Tracer(sample=1.5)
    with pytest.raises(ValueError):
        TraceCollector(capacity=0)


# -- completion semantics ----------------------------------------------------

def test_trace_completes_when_root_and_children_finish():
    tracer = Tracer(enabled=True)
    request = traced_request(tracer)
    ctxs = tracer.sampled([request])
    with tracer.span("engine_pass", ctxs, requests=1):
        pass
    assert tracer.completed() == [], "root still open: not complete"
    request.future.resolve()
    traces = tracer.completed()
    assert len(traces) == 1
    assert well_nested(traces[0]) is None
    names = {span["name"] for span in traces[0]["spans"]}
    assert names == {"request", "engine_pass"}


def test_root_closes_on_every_future_outcome():
    for outcome, status in (
        (dict(), "ok"),
        (dict(error=RuntimeError("boom")), "error"),
        (dict(cancelled=True), "cancelled"),
    ):
        tracer = Tracer(enabled=True)
        request = traced_request(tracer)
        request.future.resolve(**outcome)
        (trace,) = tracer.completed()
        (root,) = trace["spans"]
        assert root["name"] == "request"
        assert root["status"] == status


def test_open_span_finish_is_idempotent():
    tracer = Tracer(enabled=True)
    request = traced_request(tracer)
    span = tracer.open_span("dispatch", tracer.sampled([request]), worker="w0")
    span.finish(status="rescued")
    span.finish(status="ok")  # loses: first outcome wins
    request.future.resolve()
    (trace,) = tracer.completed()
    dispatch = next(s for s in trace["spans"] if s["name"] == "dispatch")
    assert dispatch["status"] == "rescued"


def test_ring_buffer_drops_oldest_and_counts():
    tracer = Tracer(enabled=True, capacity=2)
    for i in range(4):
        traced_request(tracer, f"req-{i}").future.resolve()
    traces = tracer.completed()
    assert len(traces) == 2
    kept = [t["spans"][0]["attrs"]["request"] for t in traces]
    assert kept == ["req-2", "req-3"]
    stats = tracer.stats()
    assert stats["completed"] == 4.0
    assert stats["dropped"] == 2.0
    assert tracer.completed(flush=True) and tracer.completed() == []


def test_batch_span_covers_every_member_trace():
    tracer = Tracer(enabled=True)
    requests = [traced_request(tracer, f"req-{i}") for i in range(3)]
    ctxs = tracer.sampled(requests)
    with tracer.span("engine_pass", ctxs, requests=3):
        pass
    for request in requests:
        request.future.resolve()
    traces = tracer.completed()
    assert len(traces) == 3
    for trace in traces:
        assert well_nested(trace) is None
        engine = next(
            s for s in trace["spans"] if s["name"] == "engine_pass"
        )
        root = next(s for s in trace["spans"] if s["parent_id"] is None)
        assert engine["parent_id"] == root["span_id"]


def test_span_error_status_on_exception():
    tracer = Tracer(enabled=True)
    request = traced_request(tracer)
    ctxs = tracer.sampled([request])
    with pytest.raises(RuntimeError):
        with tracer.span("engine_pass", ctxs):
            raise RuntimeError("boom")
    request.future.resolve()
    (trace,) = tracer.completed()
    engine = next(s for s in trace["spans"] if s["name"] == "engine_pass")
    assert engine["status"] == "error"


# -- cross-process adoption --------------------------------------------------

def test_adopt_rebases_and_clamps_into_dispatch_window():
    tracer = Tracer(enabled=True)
    request = traced_request(tracer)
    ctx = request.trace
    sent, received = 100.0, 100.5
    # Worker clock far away from ours; one record pokes outside the window.
    remote = [
        {
            "trace_id": ctx.trace_id, "span_id": "w-1",
            "parent_id": ctx.root_id, "name": "worker_execute",
            "start": 9000.1, "end": 9000.4, "status": "ok",
            "pid": 999, "thread": "link", "attrs": {}, "follows": [],
        },
        {
            "trace_id": ctx.trace_id, "span_id": "w-2",
            "parent_id": "w-1", "name": "engine_pass",
            "start": 8999.0, "end": 9001.0, "status": "ok",
            "pid": 999, "thread": "link", "attrs": {}, "follows": [],
        },
    ]
    adopted = tracer.adopt(
        remote, sent, received, remote_clock=(9000.0, 9000.5)
    )
    assert adopted == 2
    request.future.resolve()
    (trace,) = tracer.completed()
    for span in trace["spans"]:
        if span["name"] == "request":
            continue
        assert sent <= span["start"] <= span["end"] <= received
        assert span["attrs"]["rtt_s"] == pytest.approx(0.5)


def test_adopt_drops_and_counts_late_records():
    tracer = Tracer(enabled=True)
    late = [{
        "trace_id": "gone", "span_id": "w-1", "parent_id": None,
        "name": "worker_execute", "start": 0.0, "end": 1.0,
        "status": "ok", "pid": 1, "thread": "t", "attrs": {}, "follows": [],
    }]
    assert tracer.adopt(late, 0.0, 1.0) == 0
    assert tracer.stats()["late"] == 1.0


def test_worker_drain_harvests_without_roots():
    tracer = Tracer(enabled=True)
    ctx = TraceContext("t-1", "r-1", "r-1")
    with tracer.span("worker_execute", (ctx,)):
        pass
    records = tracer.drain()
    assert [r["name"] for r in records] == ["worker_execute"]
    assert tracer.drain() == []
    assert tracer.stats()["open_traces"] == 0.0


# -- wire + metrics ----------------------------------------------------------

def test_trace_context_pickles_roundtrip():
    ctx = TraceContext("t-1", "r-1", "p-1", follows="d-0", wait_from=1.5)
    clone = pickle.loads(pickle.dumps(ctx))
    for name in TraceContext.__slots__:
        assert getattr(clone, name) == getattr(ctx, name)


def test_stage_latency_histograms_fed():
    tracer = Tracer(enabled=True)
    metrics = MetricsRegistry()
    tracer.bind_metrics(metrics)
    request = traced_request(tracer)
    ctxs = tracer.sampled([request])
    with tracer.span("engine_pass", ctxs):
        pass
    tracer.record_span("queue_wait", ctxs, 0.0, 0.25)
    request.future.resolve()
    snapshot = metrics.snapshot()
    for stage in ("request", "engine_pass", "queue_wait"):
        assert snapshot["serve.stage_latency." + stage]["count"] >= 1
    assert snapshot["serve.stage_latency.queue_wait"]["max"] == pytest.approx(
        250.0
    )
    # Non-stage names never mint histograms.
    tracer.record_span("layer:conv1", ctxs, 0.0, 0.1)
    assert "serve.stage_latency.layer:conv1" not in metrics.snapshot()


def test_layer_hook_records_under_parent():
    tracer = Tracer(enabled=True)
    request = traced_request(tracer)
    ctxs = tracer.sampled([request])
    hook = layer_hook(tracer, ctxs, parent_id="engine-span")
    hook("conv1", 1.0, 1.1, "forward")
    hook("conv1", 1.1, 1.2, "layer")
    request.future.resolve()
    (trace,) = tracer.completed()
    for name in ("forward:conv1", "layer:conv1"):
        span = next(s for s in trace["spans"] if s["name"] == name)
        assert span["parent_id"] == "engine-span"


# -- exporters ---------------------------------------------------------------

def completed_trace(tracer=None):
    tracer = tracer or Tracer(enabled=True)
    request = traced_request(tracer)
    ctxs = tracer.sampled([request])
    with tracer.span("queue_wait", ctxs):
        pass
    with tracer.span("engine_pass", ctxs):
        pass
    request.future.resolve()
    (trace,) = tracer.completed()
    return trace


def test_jsonl_roundtrip():
    trace = completed_trace()
    buffer = io.StringIO()
    written = to_jsonl([trace], buffer)
    assert written == len(trace["spans"]) == 3
    buffer.seek(0)
    (back,) = read_jsonl(buffer)
    assert back["trace_id"] == trace["trace_id"]
    assert back["spans"] == trace["spans"]
    assert well_nested(back) is None


def test_chrome_export_shape():
    trace = completed_trace()
    document = to_chrome([trace])
    json.dumps(document)  # must be serialisable as-is
    assert document["displayTimeUnit"] == "ms"
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == 3
    for event in complete:
        assert event["dur"] >= 0.0
        assert event["ts"] >= 0.0
        assert event["args"]["trace_id"] == trace["trace_id"]


def test_chrome_export_renders_follow_from_flow():
    tracer = Tracer(enabled=True)
    request = traced_request(tracer)
    ctxs = tracer.sampled([request])
    first = tracer.open_span("dispatch", ctxs, worker="w0")
    first.finish(status="rescued")
    second = tracer.open_span(
        "dispatch", ctxs, follows=[first.id], worker="w1"
    )
    second.finish()
    request.future.resolve()
    (trace,) = tracer.completed()
    assert well_nested(trace) is None
    events = to_chrome([trace])["traceEvents"]
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == 1 and len(finishes) == 1
    assert starts[0]["id"] == finishes[0]["id"]
    assert finishes[0]["bp"] == "e"


def test_well_nested_flags_structural_violations():
    trace = completed_trace()
    assert well_nested({"trace_id": "x", "spans": []}) is not None
    orphan = dict(trace["spans"][0], parent_id="missing")
    assert "orphan" in well_nested(
        {"trace_id": "x", "spans": [dict(trace["spans"][-1]), orphan]}
    )
    two_roots = {
        "trace_id": "x",
        "spans": [
            dict(trace["spans"][-1]),
            dict(trace["spans"][-1], span_id="other", parent_id=None),
        ],
    }
    assert "exactly one root" in well_nested(two_roots)
