"""Pluggable execution backends for declarative sweep plans.

A backend turns a :class:`~repro.plan.SweepSpec`'s point function plus a
list of task dictionaries into a *stream* of ``(index, row)`` pairs, yielded
as points complete.  The index is the task's position in the submitted list,
so consumers (:func:`repro.plan.iter_plan` / :func:`~repro.plan.collect_plan`)
can reassemble the canonical row order regardless of completion order —
every backend is therefore bit-for-bit interchangeable with every other.

Three strategies ship:

* :class:`SerialBackend` — in-process, lazily one point at a time (the
  reference semantics, and what everything falls back to);
* :class:`ThreadBackend` / :class:`ProcessBackend` — a private
  :mod:`concurrent.futures` pool per ``execute`` call;
* :class:`ExecutorBackend` — dispatch onto a long-lived executor owned by
  someone else (e.g. a :class:`repro.session.Session`'s shared pool) without
  ever shutting it down.

Failure policy: only pool *infrastructure* failures — ``OSError`` while
building a pool, ``BrokenExecutor`` / ``PicklingError`` while dispatching
(e.g. a pool worker killed mid-sweep) — degrade to the serial path, which
re-runs the undelivered points; an exception raised by a point function
itself propagates unchanged, because it would fail serially too.
"""

from __future__ import annotations

import pickle
import sys
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

#: Backend names accepted by :func:`make_backend`, ``Session`` and the CLI.
BACKENDS = ("process", "thread", "serial")

PointFn = Callable[[Dict[str, object]], Dict[str, object]]
RowStream = Iterator[Tuple[int, Dict[str, object]]]

#: Errors that mean "the pool could not be built" (e.g. fork refused in a
#: restricted environment); only caught around pool construction.
POOL_BUILD_ERRORS = (OSError, BrokenExecutor)

#: Errors that mean "the execution infrastructure died mid-dispatch", never
#: "the point was wrong": these trigger serial fallback.
#: Deliberately excludes OSError — a point function raising e.g.
#: FileNotFoundError is a point error and must propagate unchanged.
DISPATCH_ERRORS = (BrokenExecutor, pickle.PicklingError)


def _warn_fallback(backend: str, error: BaseException) -> None:
    print(
        f"warning: {backend} pool failed ({error!r}); running sweep serially",
        file=sys.stderr,
    )


def _serial_stream(fn: PointFn, tasks: Sequence[Dict[str, object]]) -> RowStream:
    for index, task in enumerate(tasks):
        yield index, fn(task)


def _stream_futures(executor: Executor, fn: PointFn,
                    tasks: Sequence[Dict[str, object]], backend: str) -> RowStream:
    """Submit all tasks, then yield ``(index, row)`` in completion order.

    On an infrastructure failure — whether raised while *submitting* (a pool
    that broke between creation and dispatch, or a caller-owned pool shut
    down under us, e.g. ``Session.close()`` racing an in-flight dispatch) or
    while collecting results — the not-yet-yielded points re-run serially
    (their futures' results, if any, are discarded — re-running a pure point
    function is always safe); a point's own exception propagates.
    """
    futures: Dict[object, int] = {}
    remaining = set(range(len(tasks)))
    try:
        try:
            for index, task in enumerate(tasks):
                futures[executor.submit(fn, task)] = index
        except RuntimeError as error:
            # Executor.submit raises a bare RuntimeError("cannot schedule
            # new futures after [interpreter] shutdown").  That is pool
            # infrastructure dying, never the point's fault — but an
            # arbitrary RuntimeError would be, so match narrowly.
            if "shutdown" not in str(error).lower():
                raise
            _warn_fallback(backend, error)
        for future in as_completed(futures):
            index = futures[future]
            row = future.result()
            remaining.discard(index)
            yield index, row
    except DISPATCH_ERRORS as error:
        _warn_fallback(backend, error)
    # Anything not delivered by a future (failed dispatch, shutdown race)
    # runs serially; on a clean pass ``remaining`` is already empty.
    for index in sorted(remaining):
        yield index, fn(tasks[index])


class ExecutionBackend:
    """Strategy interface: stream ``(index, row)`` pairs for a task list."""

    #: short name used in warnings and CLI help
    name = "abstract"

    def execute(self, fn: PointFn, tasks: Sequence[Dict[str, object]]) -> RowStream:
        """Yield ``(index, row)`` for every task exactly once, as completed."""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Run every point in-process, lazily, in canonical order."""

    name = "serial"

    def execute(self, fn, tasks):
        return _serial_stream(fn, tasks)


class _OwnedPoolBackend(ExecutionBackend):
    """Common machinery of backends that build a private pool per call."""

    pool_cls: Callable[..., Executor] = ThreadPoolExecutor

    def __init__(self, jobs: int = 2):
        if jobs < 1:
            raise ValueError(f"jobs must be positive, got {jobs}")
        self.jobs = jobs

    def execute(self, fn, tasks):
        if len(tasks) <= 1 or self.jobs <= 1:
            yield from _serial_stream(fn, tasks)
            return
        try:
            pool = self.pool_cls(max_workers=min(self.jobs, len(tasks)))
        except POOL_BUILD_ERRORS as error:
            _warn_fallback(self.name, error)
            yield from _serial_stream(fn, tasks)
            return
        with pool:
            yield from _stream_futures(pool, fn, tasks, self.name)


class ThreadBackend(_OwnedPoolBackend):
    """A private thread pool per call (good for GIL-releasing points)."""

    name = "thread"
    pool_cls = ThreadPoolExecutor


class ProcessBackend(_OwnedPoolBackend):
    """A private process pool per call (true parallelism; picklable points)."""

    name = "process"
    pool_cls = ProcessPoolExecutor


class ExecutorBackend(ExecutionBackend):
    """Dispatch onto a caller-owned executor without ever shutting it down.

    This is how a :class:`repro.session.Session` amortizes ONE shared pool
    across every sweep and experiment of its lifetime.
    """

    name = "shared"

    def __init__(self, executor: Executor):
        self.executor = executor

    def execute(self, fn, tasks):
        if len(tasks) <= 1:
            yield from _serial_stream(fn, tasks)
            return
        yield from _stream_futures(self.executor, fn, tasks, self.name)


def make_backend(
    backend: str,
    jobs: int = 1,
    executor: Optional[Executor] = None,
) -> ExecutionBackend:
    """Resolve the (name, jobs, executor) knobs into a backend object.

    Precedence: a caller-owned ``executor`` (the session's shared pool) wins,
    then the named pool kind — degraded to :class:`SerialBackend` when
    ``jobs`` stays at 1, matching the historical runner semantics.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    if executor is not None:
        return ExecutorBackend(executor)
    if jobs <= 1 or backend == "serial":
        return SerialBackend()
    return ThreadBackend(jobs) if backend == "thread" else ProcessBackend(jobs)
