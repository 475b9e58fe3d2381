"""The repro.net wire format: round trips, truncation, version gating.

Every frame is encoded by :func:`encode_frame_segments` and decoded by the
one decoder behind :meth:`FramedConnection.recv`, so every case here runs
over a real ``socketpair``.  Every payload class — :class:`InferenceRequest`
wire dicts, frozen dataclasses such as :class:`PlanRow`, full
:class:`InferenceResult` objects, arrays of any dtype, shape and layout —
must cross it bit-for-bit, and the error taxonomy must hold: clean EOF
between frames is :class:`ConnectionClosed`, EOF inside a frame is
:class:`TruncatedFrame`, a foreign wire version is :class:`VersionMismatch`
and never decoded.  Malformed frames are built as raw bytes joined from the
encoder's segments and patched.
"""

import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import spikestream_config
from repro.net import framing
from repro.net.blob import BlobCache
from repro.net.framing import (
    ARRAY_OOB_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    PREFIX,
    V2_HEADER,
    ConnectionClosed,
    FrameError,
    FramedConnection,
    Message,
    TruncatedFrame,
    VersionMismatch,
    WIRE_VERSION,
    encode_frame_segments,
    request_from_wire,
    request_to_wire,
)
from repro.plan import PlanRow
from repro.serve.queue import InferenceRequest
from repro.session import Session

#: A receive blocked this long means the decoder waits for bytes that can
#: never come; the timeout turns that hang into a test failure.
RECV_TIMEOUT_S = 30.0


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    try:
        yield left, right
    finally:
        left.close()
        right.close()


def _frame_bytes(kind, **payload):
    """One frame as raw bytes, joined from the encoder's segments."""
    segments, total = encode_frame_segments(Message(kind, payload))
    frame = bytearray(b"".join(segments))
    assert len(frame) == total
    return frame


def _receive_raw(pair, data, *, close=True):
    """Write ``data`` into the pair (then EOF) and decode what arrives."""
    left, right = pair
    right.settimeout(RECV_TIMEOUT_S)
    left.sendall(data)
    if close:
        left.shutdown(socket.SHUT_WR)
    return FramedConnection(right).recv()


def _transfer(sender, receiver, kind, **payload):
    """``receiver.recv()`` of one ``sender.send``, the send on a helper
    thread so a frame larger than the socket buffer cannot deadlock."""
    pusher = threading.Thread(
        target=sender.send, args=(kind,), kwargs=payload, daemon=True
    )
    pusher.start()
    try:
        return receiver.recv()
    finally:
        pusher.join(timeout=RECV_TIMEOUT_S)
        assert not pusher.is_alive()


def _roundtrip(pair, kind, **payload):
    left, right = pair
    right.settimeout(RECV_TIMEOUT_S)
    message = _transfer(FramedConnection(left), FramedConnection(right),
                        kind, **payload)
    assert message.kind == kind
    return message


class TestFrameCodec:
    def test_encode_decode_identity(self, pair):
        message = Message("probe", {"values": [1, 2.5, "three"], "flag": True})
        left, right = pair
        sender, receiver = FramedConnection(left), FramedConnection(right)
        decoded = _transfer(sender, receiver, message.kind, **message.payload)
        assert decoded == message
        _segments, total = encode_frame_segments(message)
        assert receiver.bytes_received == total == sender.bytes_sent

    def test_decode_rejects_bad_magic(self, pair):
        frame = _frame_bytes("probe")
        frame[:4] = b"XXXX"
        with pytest.raises(FrameError) as err:
            _receive_raw(pair, frame)
        assert not isinstance(err.value, VersionMismatch)

    def test_decode_rejects_foreign_version(self, pair):
        frame = _frame_bytes("probe")
        struct.pack_into("!H", frame, len(MAGIC), WIRE_VERSION + 1)
        with pytest.raises(VersionMismatch):
            _receive_raw(pair, frame)

    def test_decode_short_buffer_is_truncated(self):
        frame = _frame_bytes("probe", n=17)
        for cut in (PREFIX.size + V2_HEADER.size - 1, len(frame) - 1):
            left, right = socket.socketpair()
            with left, right:
                with pytest.raises(TruncatedFrame):
                    _receive_raw((left, right), frame[:cut])


class TestArrayEdgeCases:
    """The array fast paths must hold at every shape/layout boundary."""

    def _roundtrip_array(self, pair, arr):
        return _roundtrip(pair, "payload", arr=arr)["arr"]

    def test_oob_array_roundtrips_bit_for_bit(self, pair):
        arr = np.arange(ARRAY_OOB_BYTES, dtype=np.float64)  # well over OOB
        back = self._roundtrip_array(pair, arr)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_fortran_order_array_roundtrips(self, pair):
        arr = np.asfortranarray(
            np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        )
        assert arr.flags.f_contiguous and not arr.flags.c_contiguous
        back = self._roundtrip_array(pair, arr)
        assert np.array_equal(back, arr)
        assert back.flags.f_contiguous

    def test_non_contiguous_array_roundtrips(self, pair):
        base = np.arange(64 * 128, dtype=np.float64).reshape(64, 128)
        arr = base[:, ::2]  # neither C- nor F-contiguous, still > OOB size
        assert not arr.flags.c_contiguous and not arr.flags.f_contiguous
        back = self._roundtrip_array(pair, arr)
        assert np.array_equal(back, arr)

    def test_zero_length_arrays_roundtrip(self, pair):
        for arr in (np.empty((0,), dtype=np.float64),
                    np.zeros((0, 3), dtype=np.int32)):
            back = self._roundtrip_array(pair, arr)
            assert back.dtype == arr.dtype
            assert back.shape == arr.shape

    def test_small_array_stays_in_band(self, pair):
        # Sub-OOB arrays must not spend buffer-table entries: the whole
        # frame is the two metadata segments, no buffer section.
        arr = np.arange(4, dtype=np.float64)
        segments, _total = encode_frame_segments(Message("payload", {"arr": arr}))
        assert len(segments) == 2
        _flags, _kind_len, n_entries, _table_len, _meta_len = (
            V2_HEADER.unpack_from(segments[0], PREFIX.size)
        )
        assert n_entries == 0
        assert np.array_equal(self._roundtrip_array(pair, arr), arr)

    def test_metadata_over_frame_bound_is_frame_error(self, pair):
        # A header announcing metadata past MAX_FRAME_BYTES is corruption,
        # not a giant payload: FrameError before any allocation or read of
        # the body happens (the writer stays open, so a decoder that waited
        # for the announced bytes would hang here instead).
        bad = PREFIX.pack(MAGIC, WIRE_VERSION) + V2_HEADER.pack(
            0, 5, 0, 0, MAX_FRAME_BYTES
        )
        with pytest.raises(FrameError) as err:
            _receive_raw(pair, bad, close=False)
        assert not isinstance(err.value, TruncatedFrame)


class TestSocketPaths:
    def test_inference_request_roundtrip_bit_for_bit(self, pair):
        config = spikestream_config(batch_size=1, timesteps=2, seed=11)
        request = InferenceRequest(
            mode="statistical", config=config, group_key=("stat", 11),
            fingerprint="fp-test", frames_count=0, batch_size=1, seed=11,
            timesteps=2,
        )
        message = _roundtrip(pair, "batch", batch_id=1,
                             requests=[request_to_wire(request)])
        rebuilt = request_from_wire(message["requests"][0])
        assert rebuilt.id == request.id
        assert rebuilt.config == config
        assert rebuilt.fingerprint == request.fingerprint
        assert rebuilt.seed == request.seed
        assert rebuilt.mode == request.mode
        # The future never crosses the wire: the rebuilt one is fresh.
        assert rebuilt.future is not request.future
        assert not rebuilt.future.done()

    def test_plan_row_roundtrip(self, pair):
        row = PlanRow(index=3, params={"stream_length": 16},
                      row={"speedup": 2.5, "label": "x"})
        message = _roundtrip(pair, "plan_row", index=row.index, row=row)
        assert message["row"] == row

    def test_inference_result_roundtrip_bit_for_bit(self, pair):
        config = spikestream_config(batch_size=1, timesteps=1, seed=13)
        with Session() as session:
            result = session.run_inference(config, batch_size=1, seed=13)
        message = _roundtrip(pair, "results", batch_id=2,
                             results=[{"id": 1, "result": result}])
        shipped = message["results"][0]["result"]
        assert shipped.identical_to(result)

    def test_clean_eof_between_frames_is_connection_closed(self, pair):
        left, right = pair
        sender, receiver = FramedConnection(left), FramedConnection(right)
        sender.send("probe")
        receiver.recv()
        sender.close()
        with pytest.raises(ConnectionClosed):
            receiver.recv()

    def test_eof_mid_frame_is_truncated(self, pair):
        # Cut inside the (in-band) metadata section.
        frame = _frame_bytes("probe", blob=b"x" * 4096)
        with pytest.raises(TruncatedFrame):
            _receive_raw(pair, frame[: len(frame) // 2])

    def test_version_mismatch_over_the_wire(self, pair):
        # A v2 peer: same header, but buffer-table entries that still carry
        # v2's compressed-length slot.  The version gate refuses the frame
        # before its table is parsed, never misreading the entries.
        arr = np.arange(ARRAY_OOB_BYTES, dtype=np.float64)
        segments, _total = encode_frame_segments(Message("payload", {"arr": arr}))
        meta = bytes(segments[1])
        table = pickle.dumps(
            [("nd", arr.dtype.str, arr.shape, "C", arr.nbytes, 0)], protocol=4
        )
        kind = b"payload"
        frame = (
            PREFIX.pack(MAGIC, 2)
            + V2_HEADER.pack(0, len(kind), 1, len(table), len(meta))
            + kind + table + meta + arr.tobytes()
        )
        with pytest.raises(VersionMismatch):
            _receive_raw(pair, frame)

    def test_v1_peer_rejected_by_the_version_gate(self, pair):
        # Every generation puts the version right after the magic, so a v1
        # frame (magic, version 1, payload length, one pickled blob) fails
        # the handshake cleanly instead of being misparsed as lengths.
        payload = pickle.dumps(("probe", {"n": 1}))
        frame = struct.pack("!4sHI", MAGIC, 1, len(payload)) + payload
        with pytest.raises(VersionMismatch):
            _receive_raw(pair, frame)

    def test_metadata_over_frame_bound_over_the_wire(self, pair):
        # The oversized header is all the peer ever sends before EOF: the
        # bound check must fire on the header alone, so the reader reports
        # FrameError rather than TruncatedFrame for the missing body.
        bad = PREFIX.pack(MAGIC, WIRE_VERSION) + V2_HEADER.pack(
            0, 5, 0, 0, MAX_FRAME_BYTES
        )
        with pytest.raises(FrameError) as err:
            _receive_raw(pair, bad)
        assert not isinstance(err.value, TruncatedFrame)

    def test_eof_inside_oob_buffer_section_is_truncated(self, pair):
        # The peer dies after the metadata but mid-way through the raw
        # buffer section; the reader must surface TruncatedFrame, never
        # block waiting for bytes that cannot come.
        arr = np.arange(ARRAY_OOB_BYTES, dtype=np.float64)
        frame = _frame_bytes("payload", arr=arr)
        with pytest.raises(TruncatedFrame):
            _receive_raw(pair, frame[: len(frame) - arr.nbytes // 2])


#: Blob threshold the codec properties run under: low enough that arrays
#: of a few KB cross it, so one example set covers in-band, out-of-band
#: and digest-only arrays.
PROPERTY_BLOB_THRESHOLD = 4 * ARRAY_OOB_BYTES

DTYPES = ("?", "u1", "<i2", ">i4", "<i8", "<f2", "<f4", ">f8", "<c16")
LAYOUTS = ("C", "F", "strided")
# Byte sizes on both sides of ARRAY_OOB_BYTES and PROPERTY_BLOB_THRESHOLD.
SIZES = st.one_of(
    st.just(0),
    st.integers(1, ARRAY_OOB_BYTES - 1),
    st.integers(ARRAY_OOB_BYTES, PROPERTY_BLOB_THRESHOLD - 1),
    st.integers(PROPERTY_BLOB_THRESHOLD, 3 * PROPERTY_BLOB_THRESHOLD),
)


def _array(dtype, layout, nbytes, cols, ndim, seed):
    """An array of about ``nbytes`` random bits in the given layout."""
    dtype = np.dtype(dtype)
    rows = -(-nbytes // (dtype.itemsize * cols))
    shape = {1: (rows * cols,), 2: (rows, cols), 3: (rows, 1, cols)}[ndim]
    wide = shape[:-1] + (shape[-1] * (2 if layout == "strided" else 1),)
    count = int(np.prod(wide))
    raw = np.random.default_rng(seed).integers(
        0, 256, count * dtype.itemsize, dtype=np.uint8
    )
    if dtype.kind == "b":
        raw %= 2
    base = raw.view(dtype).reshape(wide)
    if layout == "F":
        return np.asfortranarray(base)
    if layout == "strided":
        return base[..., ::2]
    return base


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from(DTYPES), layout=st.sampled_from(LAYOUTS),
           nbytes=SIZES, cols=st.integers(1, 16), ndim=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), blob_cache=st.booleans())
    def test_arrays_round_trip_bit_for_bit(self, dtype, layout, nbytes, cols,
                                           ndim, seed, blob_cache):
        arr = _array(dtype, layout, nbytes, cols, ndim, seed)
        left, right = socket.socketpair()
        right.settimeout(RECV_TIMEOUT_S)
        caches = (BlobCache(), BlobCache()) if blob_cache else (None, None)
        with pytest.MonkeyPatch.context() as patch, \
                FramedConnection(left, blob_cache=caches[0]) as sender, \
                FramedConnection(right, blob_cache=caches[1]) as receiver:
            patch.setattr(framing, "BLOB_THRESHOLD_BYTES",
                          PROPERTY_BLOB_THRESHOLD)
            # A digest miss is answered by the sender's own recv loop.
            answering = threading.Thread(target=self._answer, args=(sender,),
                                         daemon=True)
            answering.start()
            back = _transfer(sender, receiver, "payload", arr=arr)["arr"]
            receiver.send("done")
            answering.join(timeout=RECV_TIMEOUT_S)
            assert not answering.is_alive()
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()

    @staticmethod
    def _answer(connection):
        assert connection.recv().kind == "done"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), nbytes=SIZES, with_array=st.booleans())
    def test_any_cut_is_connection_closed_or_truncated(self, data, nbytes,
                                                       with_array):
        payload = {"n": 17, "tag": "x" * (nbytes % 97)}
        if with_array:
            payload["arr"] = np.arange(nbytes // 8, dtype=np.float64)
        frame = _frame_bytes("probe", **payload)
        cut = data.draw(st.integers(0, len(frame) - 1), label="cut")
        expected = ConnectionClosed if cut == 0 else TruncatedFrame
        left, right = socket.socketpair()
        with left, right:
            with pytest.raises(expected):
                _receive_raw((left, right), frame[:cut])


class TestFramedConnection:
    def test_byte_accounting_both_directions(self, pair):
        left, right = pair
        a, b = FramedConnection(left), FramedConnection(right)
        sent = a.send("probe", n=1)
        message = b.recv()
        assert message.kind == "probe"
        assert a.bytes_sent == sent == b.bytes_received
        assert a.bytes_received == 0

    def test_sending_flag_covers_a_blocked_send(self, pair):
        # A liveness monitor must be able to tell "this link is busy
        # moving a huge frame" from "the peer went quiet": `sending` stays
        # true for the whole of send(), including the socket write blocked
        # on a full buffer.
        left, right = pair
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        a, b = FramedConnection(left), FramedConnection(right)
        arr = np.arange(1 << 19, dtype=np.float64)  # 4 MB >> both buffers
        assert not a.sending
        pusher = threading.Thread(
            target=a.send, args=("batch",), kwargs={"payload": arr},
            daemon=True,
        )
        pusher.start()
        deadline = time.monotonic() + 10.0
        while not a.sending and time.monotonic() < deadline:
            time.sleep(0.001)
        assert a.sending  # parked mid-write; the receiver hasn't read yet
        message = b.recv()
        pusher.join(timeout=10.0)
        assert not pusher.is_alive()
        assert not a.sending
        assert np.array_equal(message["payload"], arr)

    def test_concurrent_senders_keep_frames_atomic(self, pair):
        left, right = pair
        a, b = FramedConnection(left), FramedConnection(right)
        per_thread, threads = 25, 4

        def blast(tag):
            for index in range(per_thread):
                a.send("burst", tag=tag, index=index, pad=b"p" * 512)

        senders = [threading.Thread(target=blast, args=(t,)) for t in range(threads)]
        for thread in senders:
            thread.start()
        received = [b.recv() for _ in range(per_thread * threads)]
        for thread in senders:
            thread.join()
        by_tag = {}
        for message in received:
            assert message.kind == "burst"
            by_tag.setdefault(message["tag"], []).append(message["index"])
        # Per-sender order is preserved; frames never interleave mid-frame.
        assert all(indices == sorted(indices) for indices in by_tag.values())

    def test_close_is_idempotent_and_unblocks_peer(self, pair):
        left, right = pair
        a, b = FramedConnection(left), FramedConnection(right)
        a.close()
        a.close()
        assert a.closed
        with pytest.raises(FrameError):
            b.recv()
