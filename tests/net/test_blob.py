"""Content-addressed blob protocol: dedup, miss resolution, failure paths.

Arrays of at least ``BLOB_THRESHOLD_BYTES`` cross the wire as content
digests; the receiver materializes them from its :class:`BlobCache` and
asks the peer (``__need_blob__`` / ``__blob__``) only on a miss.  The
contract under test: payloads stay bit-for-bit, repeated sends of the same
content cost digest-sized frames, the miss protocol resolves under the
receive lock without deadlocking, and a digest nobody can serve is a clean
:class:`FrameError` — never a hang.
"""

import socket
import threading

import numpy as np
import pytest

from repro.net import framing
from repro.net.blob import BlobCache, array_digest, array_wire_view
from repro.net.framing import FrameError, FramedConnection

#: Low threshold so test arrays (a few KB) take the blob path.
THRESHOLD = 1 << 12


@pytest.fixture(autouse=True)
def low_blob_threshold(monkeypatch):
    monkeypatch.setattr(framing, "BLOB_THRESHOLD_BYTES", THRESHOLD)


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    try:
        yield left, right
    finally:
        left.close()
        right.close()


def _connections(pair, *, sender_cache=True, receiver_cache=True):
    left, right = pair
    sender = FramedConnection(
        left, blob_cache=BlobCache() if sender_cache else None
    )
    receiver = FramedConnection(
        right, blob_cache=BlobCache() if receiver_cache else None
    )
    return sender, receiver


def _serve_blobs(connection):
    """Pump ``connection.recv()`` in a daemon thread so the blob-miss
    protocol on the other side gets its ``__need_blob__`` answered; returns
    the first *application* message received (via a one-slot list)."""
    slot = []

    def pump():
        try:
            slot.append(connection.recv())
        except FrameError:
            pass  # socket torn down at test exit

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    return slot, thread


class TestBlobCache:
    def test_digest_is_content_addressed(self):
        a = np.arange(1024, dtype=np.float64)
        b = np.arange(1024, dtype=np.float64)
        c = np.arange(1024, dtype=np.float32)
        assert array_digest(a) == array_digest(b)
        assert array_digest(a) != array_digest(c)

    def test_register_get_contains(self):
        cache = BlobCache()
        arr = np.arange(256, dtype=np.float64)
        digest = array_digest(arr)
        assert digest not in cache
        cache.register(digest, array_wire_view(arr)[0])
        assert digest in cache
        assert bytes(cache.get(digest)) == arr.tobytes()
        assert len(cache) == 1


class TestBlobProtocol:
    def test_miss_then_hit_with_byte_savings(self, pair):
        sender, receiver = _connections(pair)
        arr = np.arange(THRESHOLD // 8 * 2, dtype=np.float64)  # 2x threshold

        sent_sizes = []
        received = []

        def consume():
            received.append(receiver.recv())
            received.append(receiver.recv())
            receiver.send("done")

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        sent_sizes.append(sender.send("data", arr=arr))
        sent_sizes.append(sender.send("data", arr=arr))
        # The sender's recv absorbs __need_blob__, answers it, then returns
        # the receiver's "done" — proving wire traffic never surfaces.
        assert sender.recv().kind == "done"
        consumer.join(timeout=30)
        assert not consumer.is_alive()

        for message in received:
            assert np.array_equal(message["arr"], arr)
        # Both frames carried a digest, not the bytes.
        assert all(size < arr.nbytes for size in sent_sizes)
        stats = receiver.blob_stats
        assert stats["blob_misses"] == 1
        assert stats["blob_hits"] == 1
        assert stats["blob_bytes_saved"] == arr.nbytes
        # The actual bytes crossed exactly once, as a __blob__ frame.
        blob_bytes = receiver.bytes_by_kind()["received"].get("__blob__", 0)
        assert blob_bytes >= arr.nbytes

    def test_receiver_without_cache_is_frame_error(self, pair):
        sender, receiver = _connections(pair, receiver_cache=False)
        arr = np.arange(THRESHOLD, dtype=np.float64)
        sender.send("data", arr=arr)
        with pytest.raises(FrameError):
            receiver.recv()

    def test_unservable_digest_is_frame_error_not_deadlock(self, pair):
        sender, receiver = _connections(pair)
        arr = np.arange(THRESHOLD, dtype=np.float64)
        sender.send("data", arr=arr)
        # Simulate the sender evicting the blob before the miss arrives:
        # its answer is found=False and the receiver must error out.
        sender._blob_cache = BlobCache()
        _slot, _thread = _serve_blobs(sender)
        with pytest.raises(FrameError):
            receiver.recv()
