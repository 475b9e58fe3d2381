"""Timing shims around each layer's public entry points (traced runs only).

:func:`installed` wraps the public functions of every layer the benchmark
measures — ``serve`` (``InferenceServer.submit_*``, ``MicroBatcher``),
``session`` (``ResultStore``, ``Session.run_inference``), ``core``
(``SpikeStreamInference``), ``kernels`` (the ``*_perf_batch`` functions, at
the binding the engine calls through) and ``snn``
(``SpikingNetwork.forward_batch``) — and restores the originals on exit.
Nothing inside ``src/`` changes.

Each wrapped call becomes one span in a :class:`Recorder`, kept in memory and
written at the end as ``repro.obs.export`` JSONL records, so ``python -m
repro.cli trace --input <file> --format chrome`` renders them.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["Recorder", "installed"]


class Recorder:
    """In-memory spans, value samples and captured call arguments.

    Spans nest per thread: a span's parent is the innermost open span of the
    same thread, or :attr:`parent` (the benchmark's current phase span) when
    none is open.
    """

    def __init__(self, trace_id: str, parent: Optional[str] = None):
        self.trace_id = trace_id
        self.parent = parent
        self.spans: List[Dict[str, object]] = []
        self.samples: Dict[str, List[float]] = {}
        #: name -> captured objects (kept only up to ``capture_limit`` each)
        self.captured: Dict[str, List[object]] = {}
        self.capture_limit = 2
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def new_id(self) -> str:
        return f"{os.getpid():x}-pb{next(self._ids):x}"

    def record(self, name: str, start: float, end: float,
               parent: Optional[str] = None, span_id: Optional[str] = None,
               status: str = "ok", **attrs) -> str:
        span_id = span_id or self.new_id()
        record = {
            "trace_id": self.trace_id,
            "span_id": span_id,
            "parent_id": parent,
            "name": name,
            "start": start,
            "end": end,
            "status": status,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
            "attrs": attrs,
            "follows": [],
        }
        with self._lock:
            self.spans.append(record)
        return span_id

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, object]]:
        """Time the block as one span; the yielded dict collects attributes."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.parent
        span_id = self.new_id()
        stack.append(span_id)
        status = "ok"
        start = time.monotonic()
        try:
            yield attrs
        except BaseException:
            status = "error"
            raise
        finally:
            end = time.monotonic()
            stack.pop()
            self.record(name, start, end, parent=parent, span_id=span_id,
                        status=status, **attrs)

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def capture(self, name: str, value: object) -> None:
        with self._lock:
            held = self.captured.setdefault(name, [])
            if len(held) < self.capture_limit:
                held.append(value)

    def durations_ms(self, name: str, start: float = float("-inf"),
                     end: float = float("inf")) -> List[float]:
        """Durations of spans called ``name`` lying inside ``[start, end]``."""
        with self._lock:
            return [
                (span["end"] - span["start"]) * 1e3
                for span in self.spans
                if span["name"] == name and span["start"] >= start
                and span["end"] <= end
            ]

    def spans_named(self, name: str, start: float = float("-inf"),
                    end: float = float("inf")) -> List[Dict[str, object]]:
        with self._lock:
            return [span for span in self.spans if span["name"] == name
                    and span["start"] >= start and span["end"] <= end]


def _wrap(recorder: Recorder, original: Callable, name, describe=None) -> Callable:
    """Time ``original`` as a span called ``name`` (or ``name(args, kwargs)``).

    ``describe(args, kwargs, result, started)`` returns extra span
    attributes; it may also sample values or capture objects.
    """

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        started = time.monotonic()
        span_name = name(args, kwargs) if callable(name) else name
        with recorder.span(span_name) as attrs:
            result = original(*args, **kwargs)
            if describe is not None:
                attrs.update(describe(args, kwargs, result, started))
            return result

    return wrapper


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _shim_table(recorder: Recorder):
    """(owner, attribute, span name, describe) for every wrapped entry point."""
    from repro.core import pipeline
    from repro.core.pipeline import SpikeStreamInference
    from repro.serve.batcher import MicroBatcher
    from repro.serve.server import InferenceServer
    from repro.session import ResultStore, Session
    from repro.snn.network import SpikingNetwork

    def kernel_name(args, kwargs):
        return f"kernels.{_arg(args, kwargs, 0, 'spec').name}"

    def kernel(batch_arg: str):
        def describe(args, kwargs, result, started):
            work = _arg(args, kwargs, 1, batch_arg)
            return {"batch": work if isinstance(work, int) else len(work)}
        return describe

    def forward(args, kwargs, result, started):
        recorder.capture("snn.forward_batch", (args[0], result))
        return {"batch": result.batch_size}

    def collect(args, kwargs, result, started):
        for request in result:
            recorder.sample("serve.queue_wait_ms",
                            max(0.0, started - request.enqueued_at) * 1e3)
        return {"requests": len(result),
                "frames": sum(request.frames_count for request in result)}

    def execute(args, kwargs, result, started):
        requests = _arg(args, kwargs, 1, "requests")
        return {"requests": len(requests),
                "frames": sum(request.frames_count for request in requests)}

    def store_get(args, kwargs, result, started):
        return {"hit": result is not None}

    return [
        (pipeline, "conv_layer_perf_batch", kernel_name, kernel("spike_counts")),
        (pipeline, "fc_layer_perf_batch", kernel_name, kernel("nnz")),
        (pipeline, "encode_layer_perf_batch", kernel_name, kernel("batch_size")),
        (SpikeStreamInference, "statistical_workloads", "core.statistical_workloads", None),
        (SpikeStreamInference, "functional_workloads", "core.functional_workloads", None),
        (SpikeStreamInference, "run_workloads", "core.run_workloads", None),
        (SpikeStreamInference, "run_statistical", "core.run_statistical", None),
        (SpikeStreamInference, "run_functional", "core.run_functional", None),
        (SpikingNetwork, "forward_batch", "snn.forward_batch", forward),
        (MicroBatcher, "collect", "serve.collect", collect),
        (MicroBatcher, "execute", "serve.execute", execute),
        (InferenceServer, "submit_statistical", "serve.submit", None),
        (InferenceServer, "submit_functional", "serve.submit", None),
        (ResultStore, "get", "session.store.get", store_get),
        (ResultStore, "put", "session.store.put", None),
        (Session, "run_inference", "session.run_inference", None),
    ]


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every entry point of :func:`_shim_table` for the block's duration."""
    saved = []
    try:
        for owner, attribute, name, describe in _shim_table(recorder):
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, original, name, describe))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
