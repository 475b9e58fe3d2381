"""Open-loop load driver that stamps latency from each request's due time.

``repro.serve.LoadGenerator`` measures a request from the moment it was
actually sent.  When the sender falls behind (a GIL stall, a slow admission
call), every later request is sent late and its latency clock starts late,
so the stall disappears from the numbers.  :func:`run_phase` instead fixes a
schedule up front (``due_i = start + i / rate``) and measures every request
from ``due_i``: a stall shows up as latency on every request it delayed.
How late the sender itself ran (``send - due``) is reported separately as
generator lateness; when it is high the benchmark measured its own driver,
not the program.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

__all__ = ["PhaseReport", "percentile", "run_phase"]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``; 0.0 if empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class PhaseReport:
    """What one load phase sent, how it ended, and how late the driver ran.

    ``results[i]`` is the i-th request's result (``None`` when it failed);
    ``latencies_ms[i]`` runs from the request's due time to the moment its
    future resolved.  ``wall_s`` spans the first due time to the last
    resolution.
    """

    name: str
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    wall_s: float = 0.0
    results: List[object] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def ok_latencies_ms(self) -> List[float]:
        return [lat for lat, res in zip(self.latencies_ms, self.results)
                if res is not None]

    def summary(self) -> dict:
        ok = self.ok_latencies_ms()
        return {
            "phase": self.name,
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "wall_s": self.wall_s,
            "latency_p50_ms": percentile(ok, 50),
            "latency_p90_ms": percentile(ok, 90),
            "lateness_p90_ms": percentile(self.lateness_ms, 90),
        }


def run_phase(
    name: str,
    submit: Callable[[int], Future],
    count: int,
    rate_hz: Optional[float],
    timeout_s: float = 120.0,
) -> PhaseReport:
    """Send ``count`` requests on a fixed schedule and wait for all of them.

    ``submit(i)`` sends request ``i`` and returns its future.  ``rate_hz``
    spaces due times ``1/rate`` apart; ``None`` makes every request due at
    once (a burst).  A request whose ``submit`` raises, whose future fails,
    or that is still pending after ``timeout_s`` counts as failed.
    """
    report = PhaseReport(name=name, sent=count)
    report.results = [None] * count
    report.latencies_ms = [0.0] * count
    done_at = [0.0] * count
    futures: List[Optional[Future]] = [None] * count
    interval = 0.0 if rate_hz is None else 1.0 / rate_hz
    all_done = threading.Event()
    remaining = [count]
    lock = threading.Lock()

    def finished() -> None:
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                all_done.set()

    def stamp(slot: int):
        def callback(_future: Future) -> None:
            done_at[slot] = time.monotonic()
            finished()
        return callback

    start = time.monotonic()
    due = [start + i * interval for i in range(count)]
    for i in range(count):
        delay = due[i] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        report.lateness_ms.append(max(0.0, time.monotonic() - due[i]) * 1e3)
        try:
            future = submit(i)
        except Exception as error:  # refused at admission: a failed request
            report.errors.append(f"request {i}: {error!r}")
            done_at[i] = time.monotonic()
            finished()
            continue
        futures[i] = future
        future.add_done_callback(stamp(i))
    all_done.wait(timeout_s)
    for i, future in enumerate(futures):
        if future is None:
            continue
        if not future.done():
            report.errors.append(f"request {i}: no answer within {timeout_s} s")
            continue
        error = future.exception()
        if error is not None:
            report.errors.append(f"request {i}: {error!r}")
            continue
        report.results[i] = future.result()
    for i in range(count):
        report.latencies_ms[i] = max(0.0, done_at[i] - due[i]) * 1e3
    report.succeeded = sum(1 for r in report.results if r is not None)
    report.failed = count - report.succeeded
    report.wall_s = max(done_at) - start if count else 0.0
    return report
