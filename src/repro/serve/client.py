"""Client-side load generation: an open-loop driver for a server.

:class:`LoadGenerator` drives a server the way a benchmark or soak test
needs: **open-loop** arrival — requests fire on a fixed schedule derived
from an arrival rate, regardless of how fast responses come back, so the
server sees genuine concurrency and queue pressure rather than one
request at a time.  Per-request outcomes (latency, rejection, expiry) are
collected into a :class:`LoadReport` whose dictionary form feeds
``benchmarks/bench_serve.py`` and ``repro.cli serve`` with one schema.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .metrics import percentile_of_sorted
from .queue import DeadlineExceeded, QueueFull, ServerClosed

__all__ = ["LoadGenerator", "LoadReport"]


@dataclass
class LoadReport:
    """Outcome of one open-loop load run."""

    offered: int = 0
    completed: int = 0
    rejected: int = 0
    expired: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of wall-clock."""
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def _percentile(self, q: float) -> float:
        return percentile_of_sorted(sorted(self.latencies_ms), q)

    def to_dict(self) -> Dict[str, float]:
        """Flat JSON-serializable summary (the bench/CLI schema)."""
        return {
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "failed": self.failed,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": self._percentile(50.0),
            "latency_p95_ms": self._percentile(95.0),
            "latency_p99_ms": self._percentile(99.0),
        }


class LoadGenerator:
    """Open-loop request driver against an in-process server.

    ``submit`` is called with the request index (``submit(i)``), performs
    ONE submission against the server and returns its
    :class:`~concurrent.futures.Future` — the caller bakes in mode, frames
    and parameters, typically a closure over
    :meth:`InferenceServer.submit_functional` that picks the i-th frame.
    ``arrival_rate_hz`` spaces submissions ``1/rate`` apart on the wall
    clock; ``None`` fires the whole load as one concurrent burst.
    """

    def __init__(
        self,
        submit: Callable[[int], Future],
        requests: int,
        arrival_rate_hz: Optional[float] = None,
    ):
        if requests < 1:
            raise ValueError(f"requests must be positive, got {requests}")
        if arrival_rate_hz is not None and arrival_rate_hz <= 0:
            raise ValueError(f"arrival_rate_hz must be positive, got {arrival_rate_hz}")
        self.submit = submit
        self.requests = requests
        self.arrival_rate_hz = arrival_rate_hz

    def run(self, timeout_s: float = 300.0) -> LoadReport:
        """Fire the schedule, wait for every future, aggregate a report."""
        report = LoadReport()
        futures: List[Future] = []
        # Latency is stamped by a done-callback the moment each future
        # resolves (worker thread), not when the collection loop below gets
        # around to it — otherwise waiting on future 0 would inflate the
        # measured latency of every future that finished meanwhile.
        latency_ms: Dict[int, float] = {}
        submitted_times: List[float] = []

        def _stamp(slot: int, submitted_at: float):
            def callback(_future: Future) -> None:
                latency_ms[slot] = (time.monotonic() - submitted_at) * 1e3

            return callback

        interval = (
            0.0 if self.arrival_rate_hz is None else 1.0 / self.arrival_rate_hz
        )
        start = time.monotonic()
        for index in range(self.requests):
            if interval > 0.0:
                # Open loop: pace against the schedule, not the last send.
                target = start + index * interval
                delay = target - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            report.offered += 1
            try:
                future = self.submit(index)
            except QueueFull:
                report.rejected += 1
                continue
            except ServerClosed:
                report.failed += 1
                continue
            submitted_at = time.monotonic()
            submitted_times.append(submitted_at)
            future.add_done_callback(_stamp(len(futures), submitted_at))
            futures.append(future)
        for slot, future in enumerate(futures):
            try:
                future.result(timeout=timeout_s)
            except DeadlineExceeded:
                report.expired += 1
                continue
            except Exception:
                report.failed += 1
                continue
            report.completed += 1
            # The done-callback can still be mid-flight when result()
            # returns; fall back to measuring here (a hair late) if so.
            report.latencies_ms.append(
                latency_ms.get(slot, (time.monotonic() - submitted_times[slot]) * 1e3)
            )
        report.wall_s = time.monotonic() - start
        return report
