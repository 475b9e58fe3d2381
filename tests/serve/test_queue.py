"""The bounded request queue: admission control, deadlines, drain."""

import threading
import time

import pytest

from repro.serve.queue import (
    DeadlineExceeded,
    InferenceRequest,
    QueueFull,
    RequestQueue,
    ServerClosed,
)


def _request(group_key="g", deadline=None, frames_count=1):
    return InferenceRequest(
        mode="statistical",
        config=None,
        group_key=group_key,
        fingerprint=f"fp-{id(object())}",
        frames_count=frames_count,
        deadline=deadline,
    )


class TestAdmission:
    def test_fifo_order(self):
        queue = RequestQueue(maxsize=4)
        first, second = _request(), _request()
        queue.put(first)
        queue.put(second)
        assert queue.pop(timeout=0.1) is first
        assert queue.pop(timeout=0.1) is second

    def test_full_queue_rejects_immediately(self):
        queue = RequestQueue(maxsize=2)
        queue.put(_request())
        queue.put(_request())
        start = time.monotonic()
        with pytest.raises(QueueFull, match="bound"):
            queue.put(_request())
        # Backpressure must be a fast rejection, never a hidden stall.
        assert time.monotonic() - start < 0.5
        assert queue.depth() == 2

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="positive"):
            RequestQueue(maxsize=0)

    def test_closed_queue_rejects_puts(self):
        queue = RequestQueue(maxsize=2)
        queue.close()
        with pytest.raises(ServerClosed):
            queue.put(_request())

    def test_put_stamps_the_gap_since_the_previous_admission(self):
        queue = RequestQueue(maxsize=2)
        first, second, rejected = _request(), _request(), _request()
        queue.put(first)
        queue.put(second)
        with pytest.raises(QueueFull):
            queue.put(rejected)
        assert first.arrival_gap == float("inf")
        assert second.arrival_gap == second.enqueued_at - first.enqueued_at
        # A rejection is no admission: it neither gets a gap nor moves the
        # previous admission time.
        assert rejected.arrival_gap == float("inf")
        assert queue.pop(timeout=0.1) is first
        third = _request()
        queue.put(third)
        assert third.arrival_gap == third.enqueued_at - second.enqueued_at

    def test_requeue_keeps_the_admission_stamps(self):
        queue = RequestQueue(maxsize=2)
        first, second = _request(), _request()
        queue.put(first)
        queue.put(second)
        stamps = (second.enqueued_at, second.arrival_gap)
        assert queue.pop(timeout=0.1) is first
        assert queue.pop(timeout=0.1) is second
        queue.requeue(second)
        assert (second.enqueued_at, second.arrival_gap) == stamps


class TestDeadlines:
    def test_expired_request_fails_with_deadline_exceeded(self):
        queue = RequestQueue(maxsize=4)
        expired = _request(deadline=time.monotonic() - 0.01)
        live = _request()
        queue.put(expired)
        queue.put(live)
        assert queue.pop(timeout=0.1) is live
        with pytest.raises(DeadlineExceeded):
            expired.future.result(timeout=0)

    def test_on_expired_callback_counts(self):
        expired_seen = []
        queue = RequestQueue(maxsize=4, on_expired=expired_seen.append)
        request = _request(deadline=time.monotonic() - 0.01)
        queue.put(request)
        assert queue.pop(timeout=0.05) is None
        assert expired_seen == [request]

    def test_pop_matching_skips_expired_head(self):
        queue = RequestQueue(maxsize=4)
        expired = _request(group_key="a", deadline=time.monotonic() - 0.01)
        match = _request(group_key="a")
        queue.put(expired)
        queue.put(match)
        assert queue.pop_matching("a") is match


class TestMatching:
    def test_pop_matching_takes_compatible_head(self):
        queue = RequestQueue(maxsize=4)
        request = _request(group_key="a")
        queue.put(request)
        assert queue.pop_matching("a") is request

    def test_pop_matching_leaves_incompatible_head(self):
        queue = RequestQueue(maxsize=4)
        other = _request(group_key="b")
        queue.put(other)
        assert queue.pop_matching("a") is None
        # FIFO position preserved for the next batching cycle.
        assert queue.pop(timeout=0.1) is other


class TestLifecycle:
    def test_pop_blocks_until_put(self):
        queue = RequestQueue(maxsize=4)
        request = _request()
        popped = []

        def consumer():
            popped.append(queue.pop(timeout=5.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.put(request)
        thread.join(timeout=5.0)
        assert popped == [request]

    def test_close_drains_then_returns_none(self):
        queue = RequestQueue(maxsize=4)
        request = _request()
        queue.put(request)
        queue.close()
        # Accepted work stays poppable after close (graceful drain)...
        assert queue.pop(timeout=0.1) is request
        # ...and a drained closed queue signals completion without waiting.
        start = time.monotonic()
        assert queue.pop(timeout=10.0) is None
        assert time.monotonic() - start < 1.0

    def test_cancel_pending_fails_queued_futures(self):
        queue = RequestQueue(maxsize=4)
        requests = [_request(), _request()]
        for request in requests:
            queue.put(request)
        assert queue.cancel_pending() == 2
        for request in requests:
            with pytest.raises(ServerClosed):
                request.future.result(timeout=0)

    def test_wait_nonempty(self):
        queue = RequestQueue(maxsize=4)
        assert not queue.wait_nonempty(0.01)
        queue.put(_request())
        assert queue.wait_nonempty(0.01)
