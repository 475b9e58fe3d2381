"""Point dispatch for declarative sweep plans: serial, or onto an executor.

:func:`execute` turns a :class:`~repro.plan.SweepSpec`'s point function plus
a list of task dictionaries into a *stream* of ``(index, row)`` pairs,
yielded as points complete.  The index is the task's position in the
submitted list, so consumers (:func:`repro.plan.iter_plan` /
:func:`~repro.plan.collect_plan`) can reassemble the canonical row order
regardless of completion order — running with or without an executor is
therefore bit-for-bit interchangeable.

The executor is always owned by the caller (a :class:`repro.session.Session`
keeps one shared pool for its whole life); :func:`execute` never creates or
shuts down a pool.  Without an executor, points run in-process, lazily, in
canonical order.

Failure policy: only pool *infrastructure* failures — ``BrokenExecutor`` /
``PicklingError`` while dispatching (e.g. a pool worker killed mid-sweep),
or a pool shut down under a submit — degrade to the serial path, which
re-runs the undelivered points; an exception raised by a point function
itself propagates unchanged, because it would fail serially too.
"""

from __future__ import annotations

import pickle
import sys
from concurrent.futures import BrokenExecutor, Executor, as_completed
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

#: Pool kinds accepted by ``Session(backend=...)`` and the CLI.
BACKENDS = ("process", "thread", "serial")

PointFn = Callable[[Dict[str, object]], Dict[str, object]]
RowStream = Iterator[Tuple[int, Dict[str, object]]]

#: Errors that mean "the execution infrastructure died mid-dispatch", never
#: "the point was wrong": these trigger serial fallback.
#: Deliberately excludes OSError — a point function raising e.g.
#: FileNotFoundError is a point error and must propagate unchanged.
DISPATCH_ERRORS = (BrokenExecutor, pickle.PicklingError)


def _warn_fallback(error: BaseException) -> None:
    print(
        f"warning: shared pool failed ({error!r}); running sweep serially",
        file=sys.stderr,
    )


def execute(
    fn: PointFn,
    tasks: Sequence[Dict[str, object]],
    executor: Optional[Executor] = None,
) -> RowStream:
    """Yield ``(index, row)`` for every task exactly once, as completed.

    With ``executor`` (and more than one task) every task is submitted up
    front and rows stream back in completion order.  On an infrastructure
    failure — whether raised while *submitting* (a pool that broke between
    creation and dispatch, or one shut down under us, e.g.
    ``Session.close()`` racing an in-flight dispatch) or while collecting
    results — the not-yet-yielded points re-run serially (their futures'
    results, if any, are discarded — re-running a pure point function is
    always safe); a point's own exception propagates.
    """
    if executor is None or len(tasks) <= 1:
        for index, task in enumerate(tasks):
            yield index, fn(task)
        return
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
            _warn_fallback(error)
        for future in as_completed(futures):
            index = futures[future]
            row = future.result()
            remaining.discard(index)
            yield index, row
    except DISPATCH_ERRORS as error:
        _warn_fallback(error)
    # Anything not delivered by a future (failed dispatch, shutdown race)
    # runs serially; on a clean pass ``remaining`` is already empty.
    for index in sorted(remaining):
        yield index, fn(tasks[index])
