"""Bounded request queue with admission control for the inference service.

The unit of work is an :class:`InferenceRequest`: one statistical or
functional inference payload plus the :class:`concurrent.futures.Future`
its caller is waiting on.  Requests flow through a thread-safe bounded
:class:`RequestQueue`:

* **backpressure** — the queue has a hard depth bound; :meth:`RequestQueue.put`
  on a full queue raises :class:`QueueFull` instead of blocking the caller
  or growing without bound (the server surfaces this as an admission
  rejection, the load generator as a drop);
* **deadlines** — a request may carry an absolute deadline
  (:func:`time.monotonic` seconds); requests that expire while queued are
  failed with :class:`DeadlineExceeded` at pop time and never executed;
* **draining** — :meth:`RequestQueue.close` stops admission while letting
  consumers pop everything already accepted, so a graceful server shutdown
  loses no accepted request; :meth:`RequestQueue.cancel_pending` instead
  fails whatever is left (non-graceful shutdown).

Batching support: :meth:`RequestQueue.pop` returns the head request, and
:meth:`RequestQueue.pop_matching` pops the head *only if* it belongs to a
given compatibility group — the primitive
:class:`repro.serve.batcher.MicroBatcher` builds FIFO-order micro-batches
from.  :meth:`RequestQueue.put` also stamps each request's
``arrival_gap`` (seconds since the previous admission), the signal the
batcher reads to tell a lone request from a clustered arrival.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional

__all__ = [
    "DeadlineExceeded",
    "InferenceRequest",
    "QueueFull",
    "RequestQueue",
    "ServerClosed",
    "resolve_future",
]


def resolve_future(future: Future, result: object = None,
                   error: Optional[BaseException] = None) -> bool:
    """Resolve ``future`` with a result or an exception, tolerating cancellation.

    Callers hold plain :class:`concurrent.futures.Future` objects and are
    free to ``cancel()`` one while it is still queued; an unguarded
    ``set_result`` would then raise ``InvalidStateError`` and kill the
    worker thread that was delivering the whole batch.  Returns whether the
    future actually accepted the outcome.
    """
    if future.cancelled():
        return False
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        return False  # cancelled (or otherwise resolved) in the window
    return True


class QueueFull(RuntimeError):
    """Admission control rejected a request: the queue is at its depth bound."""


class DeadlineExceeded(RuntimeError):
    """A request's deadline expired before it was executed."""


class ServerClosed(RuntimeError):
    """The server (or queue) no longer accepts new requests."""


_REQUEST_IDS = itertools.count(1)


@dataclass
class InferenceRequest:
    """One queued inference call and the future its caller waits on.

    ``mode`` is ``"statistical"`` (payload: ``batch_size``/``seed``/
    ``timesteps``/``firing_rates``) or ``"functional"`` (payload:
    ``network``/``frames``).  ``config`` applies to both.  ``group_key`` is the
    compatibility fingerprint under which the micro-batcher may coalesce
    this request with its neighbours; ``fingerprint`` is the request's full
    result-store key.  ``frames_count`` is the number of frames the request
    contributes to a micro-batch (statistical: ``batch_size``; functional:
    ``len(frames)``).  ``policy`` is the functional request's golden-model
    :class:`~repro.snn.numerics.NumericsPolicy` (``None`` -> the FP64 dense
    reference); it is already baked into ``group_key`` and ``fingerprint``,
    so requests with different policies never coalesce or share store
    entries.  ``trace`` is the request's :class:`repro.obs.TraceContext`
    when the server's tracer sampled it (``None`` otherwise); it ships to
    remote workers so their spans stitch into the same trace.
    ``arrival_gap`` is the time in seconds between the previous admission
    to the queue and this one, stamped by :meth:`RequestQueue.put` (``inf``
    for the queue's first admission and for a request never put); it is
    process-local and never crosses the wire.
    """

    mode: str
    config: object
    group_key: str
    fingerprint: str
    frames_count: int
    batch_size: int = 1
    seed: Optional[int] = None
    timesteps: int = 1
    firing_rates: Optional[Dict[str, float]] = None
    network: object = None
    frames: object = None
    policy: object = None
    deadline: Optional[float] = None
    trace: object = None
    future: Future = field(default_factory=Future)
    id: int = field(default_factory=lambda: next(_REQUEST_IDS))
    enqueued_at: float = field(default_factory=time.monotonic)
    arrival_gap: float = math.inf

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the request's deadline has passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline


class RequestQueue:
    """Thread-safe bounded FIFO of :class:`InferenceRequest` objects.

    ``maxsize`` is the admission bound; ``on_expired`` (optional) is called
    once for every request failed with :class:`DeadlineExceeded` so the
    server can count rejections without wrapping every pop.
    """

    def __init__(
        self,
        maxsize: int = 256,
        on_expired: Optional[Callable[[InferenceRequest], None]] = None,
    ):
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._on_expired = on_expired
        self._items: Deque[InferenceRequest] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._last_admitted = -math.inf

    # -- producer side ------------------------------------------------------
    def put(self, request: InferenceRequest) -> None:
        """Admit one request or raise (:class:`QueueFull`/:class:`ServerClosed`).

        Never blocks: a full queue is an admission decision the caller must
        see immediately, not a hidden stall.  Stamps ``enqueued_at`` and
        ``arrival_gap``; a rejected request leaves the previous admission
        time as it was.
        """
        with self._lock:
            if self._closed:
                raise ServerClosed("queue is closed to new requests")
            if len(self._items) >= self.maxsize:
                raise QueueFull(
                    f"request queue is at its bound ({self.maxsize}); try again later"
                )
            now = time.monotonic()
            request.enqueued_at = now
            request.arrival_gap = now - self._last_admitted
            self._last_admitted = now
            self._items.append(request)
            self._not_empty.notify()

    def requeue(self, request: InferenceRequest) -> None:
        """Return an already-admitted request to the *head* of the queue.

        The rescue path of a distributed coordinator (:mod:`repro.net`)
        re-dispatches the in-flight batch of a dead or stalled worker; those
        requests were admitted once, so they bypass the depth bound, and they
        go to the front so the rescue still lands inside the original
        deadline.  Works on a closed queue too — a graceful drain must still
        execute rescued requests rather than lose them.  The request keeps
        the ``enqueued_at`` and ``arrival_gap`` of its admission.
        """
        with self._lock:
            self._items.appendleft(request)
            self._not_empty.notify()

    # -- consumer side ------------------------------------------------------
    def _fail_expired_all(self, requests) -> None:
        """Fail expired requests with :class:`DeadlineExceeded`.

        MUST be called with the queue lock released: resolving a future
        runs its done-callbacks inline, and a callback is allowed to come
        straight back into the queue (e.g. a client resubmitting on
        expiry) — doing that under the non-reentrant lock would deadlock.
        """
        for request in requests:
            resolve_future(
                request.future,
                error=DeadlineExceeded(
                    f"request {request.id} expired before execution"
                ),
            )
            if self._on_expired is not None:
                self._on_expired(request)

    def _take_live_locked(self, expired: list) -> Optional[InferenceRequest]:
        """Pop the first non-expired request; expired ones go into ``expired``."""
        now = time.monotonic()
        while self._items:
            request = self._items.popleft()
            if request.expired(now):
                expired.append(request)
                continue
            return request
        return None

    def pop(self, timeout: Optional[float] = None) -> Optional[InferenceRequest]:
        """The head request, waiting up to ``timeout`` seconds for one.

        Returns ``None`` on timeout or when the queue is closed and fully
        drained.  Expired requests are failed and skipped transparently.
        """
        end = None if timeout is None else time.monotonic() + timeout
        while True:
            expired: list = []
            exhausted = False
            with self._not_empty:
                request = self._take_live_locked(expired)
                if request is None and not expired:
                    if self._closed:
                        exhausted = True
                    else:
                        remaining = None if end is None else end - time.monotonic()
                        if remaining is not None and remaining <= 0:
                            exhausted = True
                        else:
                            self._not_empty.wait(remaining)
            self._fail_expired_all(expired)
            if request is not None:
                return request
            if exhausted:
                return None

    def pop_matching(self, group_key: str) -> Optional[InferenceRequest]:
        """Pop the head request iff it belongs to ``group_key``; else ``None``.

        Expired requests at the head are failed and skipped first, so an
        expired incompatible head can never block a batch.  FIFO order is
        preserved: an incompatible head stays put (and keeps its queue
        position) for the next batching cycle.
        """
        expired: list = []
        with self._lock:
            now = time.monotonic()
            while self._items and self._items[0].expired(now):
                expired.append(self._items.popleft())
            request = None
            if self._items and self._items[0].group_key == group_key:
                request = self._items.popleft()
        self._fail_expired_all(expired)
        return request

    def wait_nonempty(self, timeout: float) -> bool:
        """Block until the queue has an item (or ``timeout``); no popping."""
        with self._not_empty:
            if self._items:
                return True
            if self._closed:
                return False
            self._not_empty.wait(timeout)
            return bool(self._items)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Stop admission; queued requests remain poppable (graceful drain)."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def cancel_pending(self, error: Optional[Exception] = None) -> int:
        """Fail every queued request (non-graceful shutdown); returns count."""
        with self._lock:
            cancelled = list(self._items)
            self._items.clear()
        # Futures resolve outside the lock (their callbacks may re-enter).
        for request in cancelled:
            resolve_future(
                request.future,
                error=error if error is not None else ServerClosed("server shut down"),
            )
        return len(cancelled)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def depth(self) -> int:
        """Current number of queued requests."""
        with self._lock:
            return len(self._items)

    def __len__(self) -> int:
        return self.depth()
