"""The repro.net wire format: round trips, truncation, version gating.

Every payload class — :class:`InferenceRequest` wire dicts, frozen
dataclasses such as :class:`PlanRow`, full :class:`InferenceResult`
objects — must cross a real ``socketpair`` bit-for-bit, and the error taxonomy must
hold: clean EOF between frames is :class:`ConnectionClosed`, EOF inside a
frame is :class:`TruncatedFrame`, a foreign wire version is
:class:`VersionMismatch` and never decoded.
"""

import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.config import spikestream_config
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
    decode_frame,
    encode_frame,
    recv_message,
    request_from_wire,
    request_to_wire,
    send_message,
)
from repro.plan import PlanRow
from repro.serve.queue import InferenceRequest
from repro.session import Session


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    try:
        yield left, right
    finally:
        left.close()
        right.close()


def _roundtrip(pair, kind, **payload):
    left, right = pair
    send_message(left, Message(kind, payload))
    message, _read = recv_message(right)
    assert message.kind == kind
    return message


class TestFrameCodec:
    def test_encode_decode_identity(self):
        message = Message("probe", {"values": [1, 2.5, "three"], "flag": True})
        frame = encode_frame(message)
        decoded, consumed = decode_frame(frame)
        assert consumed == len(frame)
        assert decoded == message

    def test_decode_rejects_bad_magic(self):
        frame = bytearray(encode_frame(Message("probe")))
        frame[:4] = b"XXXX"
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_decode_rejects_foreign_version(self):
        frame = encode_frame(Message("probe"), version=WIRE_VERSION + 1)
        with pytest.raises(VersionMismatch):
            decode_frame(frame)

    def test_decode_short_buffer_is_truncated(self):
        frame = encode_frame(Message("probe", {"n": 17}))
        with pytest.raises(TruncatedFrame):
            decode_frame(frame[: PREFIX.size + V2_HEADER.size - 1])
        with pytest.raises(TruncatedFrame):
            decode_frame(frame[:-1])


class TestArrayEdgeCases:
    """The v2 array fast paths must hold at every shape/layout boundary."""

    def _roundtrip_array(self, arr):
        frame = encode_frame(Message("payload", {"arr": arr}))
        decoded, consumed = decode_frame(frame)
        assert consumed == len(frame)
        return decoded["arr"]

    def test_oob_array_roundtrips_bit_for_bit(self):
        arr = np.arange(ARRAY_OOB_BYTES, dtype=np.float64)  # well over OOB
        back = self._roundtrip_array(arr)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_fortran_order_array_roundtrips(self):
        arr = np.asfortranarray(
            np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        )
        assert arr.flags.f_contiguous and not arr.flags.c_contiguous
        back = self._roundtrip_array(arr)
        assert np.array_equal(back, arr)
        assert back.flags.f_contiguous

    def test_non_contiguous_array_roundtrips(self):
        base = np.arange(64 * 128, dtype=np.float64).reshape(64, 128)
        arr = base[:, ::2]  # neither C- nor F-contiguous, still > OOB size
        assert not arr.flags.c_contiguous and not arr.flags.f_contiguous
        back = self._roundtrip_array(arr)
        assert np.array_equal(back, arr)

    def test_zero_length_arrays_roundtrip(self):
        for arr in (np.empty((0,), dtype=np.float64),
                    np.zeros((0, 3), dtype=np.int32)):
            back = self._roundtrip_array(arr)
            assert back.dtype == arr.dtype
            assert back.shape == arr.shape

    def test_small_array_stays_in_band(self):
        # Sub-OOB arrays must not spend buffer-table entries: the whole
        # frame is the two metadata segments, no buffer section.
        arr = np.arange(4, dtype=np.float64)
        frame = encode_frame(Message("payload", {"arr": arr}))
        _flags, _kind_len, n_entries, _table_len, _meta_len = (
            V2_HEADER.unpack_from(frame, PREFIX.size)
        )
        assert n_entries == 0
        assert np.array_equal(decode_frame(frame)[0]["arr"], arr)

    def test_metadata_over_frame_bound_is_frame_error(self):
        # A header announcing metadata past MAX_FRAME_BYTES is corruption,
        # not a giant payload: FrameError before any allocation happens.
        bad = PREFIX.pack(MAGIC, WIRE_VERSION) + V2_HEADER.pack(
            0, 5, 0, 0, MAX_FRAME_BYTES
        )
        with pytest.raises(FrameError) as err:
            decode_frame(bad)
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
        send_message(left, Message("probe"))
        recv_message(right)
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_message(right)

    def test_eof_mid_frame_is_truncated(self, pair):
        left, right = pair
        frame = encode_frame(Message("probe", {"blob": b"x" * 4096}))
        left.sendall(frame[: len(frame) // 2])
        left.close()
        with pytest.raises(TruncatedFrame):
            recv_message(right)

    def test_version_mismatch_over_the_wire(self, pair):
        left, right = pair
        left.sendall(encode_frame(Message("probe"), version=WIRE_VERSION + 7))
        with pytest.raises(VersionMismatch):
            recv_message(right)

    def test_v1_peer_rejected_by_v2_reader(self, pair):
        # Both generations put the version right after the magic, so a v1
        # frame (magic, version 1, payload length, one pickled blob) hitting
        # a v2 reader fails the handshake cleanly instead of being misparsed
        # as lengths.
        left, right = pair
        payload = pickle.dumps(("probe", {"n": 1}))
        left.sendall(struct.pack("!4sHI", MAGIC, 1, len(payload)) + payload)
        with pytest.raises(VersionMismatch):
            recv_message(right)

    def test_eof_inside_oob_buffer_section_is_truncated(self, pair):
        # The peer dies after the metadata but mid-way through the raw
        # buffer section; the reader must surface TruncatedFrame, never
        # block waiting for bytes that cannot come.
        left, right = pair
        arr = np.arange(ARRAY_OOB_BYTES, dtype=np.float64)
        frame = encode_frame(Message("payload", {"arr": arr}))
        left.sendall(frame[: len(frame) - arr.nbytes // 2])
        left.close()
        with pytest.raises(TruncatedFrame):
            recv_message(right)

    def test_metadata_over_frame_bound_over_the_wire(self, pair):
        left, right = pair
        left.sendall(
            PREFIX.pack(MAGIC, WIRE_VERSION)
            + V2_HEADER.pack(0, 5, 0, 0, MAX_FRAME_BYTES)
        )
        with pytest.raises(FrameError):
            recv_message(right)


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
