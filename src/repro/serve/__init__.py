"""Concurrent inference serving on top of :class:`repro.session.Session`.

The serving subsystem turns the batched engines of PR 4 into throughput
under concurrent load: independent requests are admission-controlled
through a bounded :class:`~repro.serve.queue.RequestQueue`, coalesced into
micro-batches by the :class:`~repro.serve.batcher.MicroBatcher`, executed
by :class:`~repro.serve.server.InferenceServer` worker threads over one
shared session (result-store hits never even queue), and observed through
a :class:`~repro.serve.metrics.MetricsRegistry`.

Quick start::

    from repro.serve import InferenceServer

    with InferenceServer(workers=2, max_batch=16, max_wait_ms=5) as server:
        futures = [server.submit_statistical(batch_size=1, seed=s)
                   for s in range(64)]
        results = [f.result() for f in futures]      # micro-batched inside
        print(server.stats()["serve.latency_ms"])    # p50/p95/p99 ...

CLI counterpart: ``python -m repro.cli serve --workers 2 --max-batch 16``;
synthetic load benchmark: ``benchmarks/bench_serve.py``.
"""

from .batcher import MicroBatcher, functional_group_key, statistical_group_key
from .client import LoadGenerator, LoadReport
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile_of_sorted
from .queue import (
    DeadlineExceeded,
    InferenceRequest,
    QueueFull,
    RequestQueue,
    ServerClosed,
    resolve_future,
)
from .server import InferenceServer

__all__ = [
    "Counter",
    "DeadlineExceeded",
    "Gauge",
    "Histogram",
    "InferenceRequest",
    "InferenceServer",
    "LoadGenerator",
    "LoadReport",
    "MetricsRegistry",
    "MicroBatcher",
    "QueueFull",
    "RequestQueue",
    "ServerClosed",
    "functional_group_key",
    "percentile_of_sorted",
    "resolve_future",
    "statistical_group_key",
]
