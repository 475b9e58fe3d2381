"""Framed messages over sockets — the repro.net wire format (protocol v2).

Every message on a :mod:`repro.net` connection is one *frame*:

.. code-block:: text

    +-------+---------+-------+----------+-----------+-----------+------+
    | magic | version | flags | kind len | n entries | table len | meta |
    | 4 B   | u16     | u16   | u16      | u16       | u32       | len  |
    |       |         |       |          |           |           | u64  |
    +-------+---------+-------+----------+-----------+-----------+------+
    | kind (UTF-8) | buffer table (pickled) | metadata (pickle-5) |
    +--------------+------------------------+---------------------+
    | raw buffer 0 | raw buffer 1 | ...                           |
    +--------------+------------------------------------------------+

The prefix is big-endian (:data:`PREFIX` then :data:`V2_HEADER`), ``magic``
is :data:`MAGIC` (``b"RPNT"``), and the *version field is validated before
anything else is read*, so a peer speaking another version — including a v1
peer, whose header also put ``version`` right after the magic — always gets
a clean :class:`VersionMismatch` instead of a garbled decode.

What changed from v1 (one pickled blob after a length header):

* **Zero-copy array framing.**  The metadata section is a pickle
  protocol-5 dump of the payload in which every eligible ndarray (contiguous,
  ``nbytes >= ARRAY_OOB_BYTES``) is replaced by a placeholder; the array's
  raw bytes travel as an entry in the *buffer table* — ``("nd", dtype,
  shape, order, nbytes, clen)`` — followed verbatim in the buffer section.
  Frames are sent with :func:`socket.socket.sendmsg` scatter-gather (no
  concatenation copy) and received with ``recv_into`` straight into the
  destination allocation.
* **Content-addressed blobs.**  With a :class:`~repro.net.blob.BlobCache`
  attached, arrays at or above the connection's blob threshold are replaced
  by ``("blob", digest, dtype, shape, order, nbytes)`` entries that carry
  *no* bytes; the receiver materializes them from its cache and answers a
  ``__need_blob__`` frame only on a miss.  Weights cross the wire once per
  worker, not once per batch.
* **Optional compression.**  ``compress=True`` deflates individual buffers
  (``clen > 0`` in the table entry) when it actually shrinks them — useful
  for sparse spike tensors; decoding always understands both forms, so
  compression is a sender-side choice needing no negotiation.

Pickle is acceptable here because both ends of every connection are trusted
repro processes on the same deployment (the coordinator spawns or invites
its own workers); the version field is the compatibility gate, not a
security boundary.

Error taxonomy (all subclasses of :class:`FrameError`):

* :class:`ConnectionClosed` — clean EOF *between* frames (the peer closed
  its socket after a complete message).  Expected during shutdown.
* :class:`TruncatedFrame` — EOF *inside* a frame (mid-header, mid-metadata
  or mid-buffer).  The peer died or the stream was cut; whatever batch was
  in flight needs rescue.
* :class:`VersionMismatch` — the peer speaks a different
  :data:`WIRE_VERSION`; frames are not decoded across versions.

:class:`FramedConnection` wraps one socket with thread-safe
:meth:`~FramedConnection.send` / :meth:`~FramedConnection.recv`, runs the
blob-miss protocol transparently under its receive lock, and keeps byte
accounting both in total (``bytes_sent`` / ``bytes_received``) and per
message kind (:meth:`~FramedConnection.bytes_by_kind`) for the
``net.bytes.<kind>`` telemetry probe.
"""

from __future__ import annotations

import io
import pickle
import socket
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .blob import BlobCache, array_digest, array_wire_view, materialize

__all__ = [
    "ARRAY_OOB_BYTES",
    "BLOB_KIND",
    "BLOB_THRESHOLD_BYTES",
    "ConnectionClosed",
    "FrameError",
    "FramedConnection",
    "MAGIC",
    "MAX_BUFFER_BYTES",
    "MAX_FRAME_BYTES",
    "Message",
    "NEED_BLOB_KIND",
    "PREFIX",
    "TruncatedFrame",
    "V2_HEADER",
    "VersionMismatch",
    "WIRE_VERSION",
    "decode_frame",
    "encode_frame",
    "encode_frame_segments",
    "recv_message",
    "request_from_wire",
    "request_to_wire",
    "send_message",
]

MAGIC = b"RPNT"
WIRE_VERSION = 2
#: Version-gate prefix shared by every protocol version: reading it alone is
#: enough to reject a foreign peer cleanly.
PREFIX = struct.Struct("!4sH")  # magic, wire version
#: Rest of the v2 header: flags, kind length, buffer-table entry count,
#: pickled-table length, metadata length.
V2_HEADER = struct.Struct("!HHHIQ")
# The metadata + table of a frame bigger than this is a corrupted header,
# not a real payload; legitimate metadata (requests minus their arrays) is
# a few KB.  Raw buffers have their own, larger bound below.
MAX_FRAME_BYTES = 1 << 30
#: Bound on the summed out-of-band buffer section of one frame.
MAX_BUFFER_BYTES = 1 << 34
#: Arrays smaller than this pickle in-band with the metadata — framing
#: overhead would exceed the copy they avoid.
ARRAY_OOB_BYTES = 2048
#: Default size at which an array is shipped as a content digest instead of
#: bytes (when the connection has a blob cache).
BLOB_THRESHOLD_BYTES = 1 << 16
#: Buffers below this are never worth deflating even with ``compress=True``.
COMPRESS_MIN_BYTES = 1 << 14

#: Reserved message kinds the connection itself exchanges to resolve blob
#: misses; they never reach application code and never blob-substitute
#: their own payloads.
NEED_BLOB_KIND = "__need_blob__"
BLOB_KIND = "__blob__"
_WIRE_KINDS = frozenset((NEED_BLOB_KIND, BLOB_KIND))

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")
_IOV_MAX = 64


class FrameError(RuntimeError):
    """Base class for wire-format failures on a repro.net connection."""


class ConnectionClosed(FrameError):
    """The peer closed the stream cleanly between frames (EOF at a frame
    boundary).  Normal during shutdown; never raised mid-frame."""


class TruncatedFrame(FrameError):
    """The stream ended inside a frame — the peer died mid-message."""


class VersionMismatch(FrameError):
    """The peer's :data:`WIRE_VERSION` differs from ours; payloads are not
    decoded across versions."""


@dataclass(frozen=True)
class Message:
    """One decoded wire message: a ``kind`` tag plus its payload dict."""

    kind: str
    payload: Dict[str, object] = field(default_factory=dict)

    def __getitem__(self, key: str) -> object:
        return self.payload[key]

    def get(self, key: str, default: object = None) -> object:
        return self.payload.get(key, default)


def _check_prefix(magic: bytes, version: int) -> None:
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != WIRE_VERSION:
        raise VersionMismatch(
            f"peer speaks wire version {version}, this process speaks "
            f"{WIRE_VERSION}"
        )


# -- placeholder plumbing ----------------------------------------------------
# The metadata pickle replaces out-of-band arrays with calls to these
# module-level functions; at decode time a thread-local context supplies the
# materialized arrays.  Both ends import this module, so the references
# pickle by name.

_DECODE_CONTEXT = threading.local()


def _array_ref(index: int) -> np.ndarray:
    arrays = getattr(_DECODE_CONTEXT, "arrays", None)
    if arrays is None:
        raise FrameError("out-of-band array reference outside a frame decode")
    return arrays[index]


def _blob_ref(index: int) -> np.ndarray:
    blobs = getattr(_DECODE_CONTEXT, "blobs", None)
    if blobs is None:
        raise FrameError("blob reference outside a frame decode")
    return blobs[index]


def _small_nd(data: bytes, dtype: str, shape: tuple) -> np.ndarray:
    """Rebuild one sub-OOB array pickled by the in-band fast path.

    Read-only by construction (``frombuffer`` over ``bytes``) — the same
    ownership contract as out-of-band arrays, which decode as read-only
    views into the frame.
    """
    return np.frombuffer(data, dtype=dtype).reshape(shape)


class _EncodeState:
    __slots__ = ("arrays", "blobs", "pickle_buffers", "blob_cache",
                 "blob_threshold")

    def __init__(self, blob_cache: Optional[BlobCache], blob_threshold: int):
        self.arrays: List[np.ndarray] = []
        self.blobs: List[Tuple[str, np.ndarray]] = []
        self.pickle_buffers: List[pickle.PickleBuffer] = []
        self.blob_cache = blob_cache
        self.blob_threshold = blob_threshold


class _WirePickler(pickle.Pickler):
    """Protocol-5 pickler that routes large contiguous arrays out-of-band."""

    def __init__(self, buffer: io.BytesIO, state: _EncodeState):
        super().__init__(buffer, protocol=5, buffer_callback=self._on_buffer)
        self._state = state

    def _on_buffer(self, buffer: pickle.PickleBuffer) -> bool:
        # Truthy return -> serialize in-band; falsy -> ship out-of-band.
        if buffer.raw().nbytes < ARRAY_OOB_BYTES:
            return True
        self._state.pickle_buffers.append(buffer)
        return False

    def reducer_override(self, obj: object):
        state = self._state
        if type(obj) is not np.ndarray:
            return NotImplemented
        if (
            obj.nbytes < ARRAY_OOB_BYTES
            and not obj.dtype.hasobject
            and obj.flags.c_contiguous
        ):
            # Sub-OOB arrays travel in-band either way; this reduce just
            # sidesteps numpy's protocol-5 machinery (a PickleBuffer plus
            # a buffer-callback round trip *per array*), which dominates
            # encode time for result payloads made of thousands of tiny
            # per-layer metric arrays.
            return (_small_nd, (obj.tobytes(), obj.dtype.str, obj.shape))
        if (
            obj.nbytes >= ARRAY_OOB_BYTES
            and not obj.dtype.hasobject
            and (obj.flags.c_contiguous or obj.flags.f_contiguous)
        ):
            if (
                state.blob_cache is not None
                and obj.nbytes >= state.blob_threshold
            ):
                digest = array_digest(obj)
                state.blob_cache.register(digest, array_wire_view(obj)[0])
                index = len(state.blobs)
                state.blobs.append((digest, obj))
                return (_blob_ref, (index,))
            index = len(state.arrays)
            state.arrays.append(obj)
            return (_array_ref, (index,))
        return NotImplemented


def _maybe_compress(view: memoryview, compress: bool,
                    compress_min: int) -> Tuple[object, int]:
    """``(wire_bytes, clen)`` for one buffer; ``clen == 0`` means raw."""
    if not compress or view.nbytes < compress_min:
        return view, 0
    packed = zlib.compress(view, 1)
    if len(packed) >= view.nbytes:
        return view, 0
    return packed, len(packed)


def encode_frame_segments(
    message: Message,
    version: int = WIRE_VERSION,
    *,
    blob_cache: Optional[BlobCache] = None,
    blob_threshold: int = BLOB_THRESHOLD_BYTES,
    compress: bool = False,
    compress_min: int = COMPRESS_MIN_BYTES,
) -> Tuple[List[object], int]:
    """``message`` as scatter-gather segments plus the total byte count.

    The first segment is the header + kind + buffer table; the second is the
    protocol-5 metadata; the rest are raw (or individually deflated) array
    buffers, zero-copy views over the live payload arrays.
    """
    state = _EncodeState(blob_cache, blob_threshold)
    sink = io.BytesIO()
    _WirePickler(sink, state).dump(message.payload)
    meta = sink.getbuffer()

    table: List[tuple] = []
    buffers: List[memoryview] = []
    buffer_bytes = 0
    for arr in state.arrays:
        view, order = array_wire_view(arr)
        wire, clen = _maybe_compress(view, compress, compress_min)
        table.append(("nd", arr.dtype.str, tuple(arr.shape), order,
                      arr.nbytes, clen))
        wire_view = wire if isinstance(wire, memoryview) else memoryview(wire)
        buffers.append(wire_view)
        buffer_bytes += wire_view.nbytes
    for digest, arr in state.blobs:
        _view, order = array_wire_view(arr)
        table.append(("blob", digest, arr.dtype.str, tuple(arr.shape), order,
                      arr.nbytes))
    for pb in state.pickle_buffers:
        view = pb.raw().cast("B")
        wire, clen = _maybe_compress(view, compress, compress_min)
        table.append(("pb", view.nbytes, clen))
        wire_view = wire if isinstance(wire, memoryview) else memoryview(wire)
        buffers.append(wire_view)
        buffer_bytes += wire_view.nbytes

    kind_bytes = message.kind.encode("utf-8")
    table_bytes = pickle.dumps(table, protocol=4) if table else b""
    if len(kind_bytes) > 0xFFFF or len(table) > 0xFFFF:
        raise FrameError(
            f"frame kind/table out of header range "
            f"({len(kind_bytes)} kind bytes, {len(table)} entries)"
        )
    framed = len(kind_bytes) + len(table_bytes) + meta.nbytes
    if framed > MAX_FRAME_BYTES:
        raise FrameError(
            f"metadata of {framed} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    if buffer_bytes > MAX_BUFFER_BYTES:
        raise FrameError(
            f"buffer section of {buffer_bytes} bytes exceeds the "
            f"{MAX_BUFFER_BYTES}-byte bound"
        )
    header = PREFIX.pack(MAGIC, version) + V2_HEADER.pack(
        0, len(kind_bytes), len(table), len(table_bytes), meta.nbytes
    )
    segments: List[object] = [header + kind_bytes + table_bytes, meta]
    segments.extend(buffers)
    total = len(segments[0]) + meta.nbytes + buffer_bytes
    return segments, total


def encode_frame(message: Message, version: int = WIRE_VERSION,
                 **options: object) -> bytes:
    """``message`` as one contiguous frame (convenience over segments)."""
    segments, _total = encode_frame_segments(message, version, **options)
    return b"".join(bytes(memoryview(seg).cast("B")) if not isinstance(seg, bytes)
                    else seg for seg in segments)


def _parse_table(raw: object, n_entries: int) -> List[tuple]:
    table = pickle.loads(raw) if n_entries else []
    if not isinstance(table, list) or len(table) != n_entries:
        raise FrameError(
            f"buffer table holds {len(table) if isinstance(table, list) else '?'} "
            f"entries but the header announces {n_entries}"
        )
    return table


def _buffer_wire_size(entry: tuple) -> int:
    """Bytes the entry occupies in the buffer section (0 for blob refs)."""
    if entry[0] == "nd":
        return entry[5] or entry[4]
    if entry[0] == "pb":
        return entry[2] or entry[1]
    if entry[0] == "blob":
        return 0
    raise FrameError(f"unknown buffer-table entry tag {entry[0]!r}")


def _finish_payload(meta, pb_buffers: Sequence[object],
                    arrays: List[np.ndarray],
                    blob_arrays: List[np.ndarray]) -> object:
    _DECODE_CONTEXT.arrays = arrays
    _DECODE_CONTEXT.blobs = blob_arrays
    try:
        return pickle.loads(meta, buffers=pb_buffers)
    finally:
        _DECODE_CONTEXT.arrays = None
        _DECODE_CONTEXT.blobs = None


def _materialize_entry(entry: tuple, raw, *, writable: bool) -> np.ndarray:
    """Array for one ``nd`` table entry from its wire bytes."""
    _tag, dtype, shape, order, _nbytes, clen = entry
    if clen:
        raw = bytearray(zlib.decompress(raw)) if writable else zlib.decompress(raw)
    return materialize(raw, dtype, tuple(shape), order)


def decode_frame(data: bytes,
                 blob_cache: Optional[BlobCache] = None) -> Tuple[Message, int]:
    """Decode one frame from ``data``; returns ``(message, bytes_consumed)``.

    Raises :class:`TruncatedFrame` when ``data`` holds less than one whole
    frame, :class:`FrameError` on a bad magic or a blob reference absent
    from ``blob_cache``, :class:`VersionMismatch` on a foreign wire version.
    Decoded out-of-band arrays are zero-copy (read-only) views into
    ``data``.
    """
    view = memoryview(data)
    if view.nbytes < PREFIX.size:
        raise TruncatedFrame(
            f"{view.nbytes} bytes is shorter than the {PREFIX.size}-byte prefix"
        )
    magic, version = PREFIX.unpack_from(view)
    _check_prefix(magic, version)
    if view.nbytes < PREFIX.size + V2_HEADER.size:
        raise TruncatedFrame(
            f"{view.nbytes} bytes is shorter than the "
            f"{PREFIX.size + V2_HEADER.size}-byte v2 header"
        )
    _flags, kind_len, n_entries, table_len, meta_len = V2_HEADER.unpack_from(
        view, PREFIX.size
    )
    if kind_len + table_len + meta_len > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame announces {kind_len + table_len + meta_len} metadata "
            f"bytes, over the {MAX_FRAME_BYTES}-byte bound"
        )
    offset = PREFIX.size + V2_HEADER.size
    if view.nbytes < offset + kind_len + table_len + meta_len:
        raise TruncatedFrame(
            f"frame announces {kind_len + table_len + meta_len} metadata "
            f"bytes but only {view.nbytes - offset} are present"
        )
    kind = bytes(view[offset:offset + kind_len]).decode("utf-8")
    offset += kind_len
    table = _parse_table(view[offset:offset + table_len], n_entries)
    offset += table_len
    meta = view[offset:offset + meta_len]
    offset += meta_len

    buffer_bytes = sum(_buffer_wire_size(entry) for entry in table)
    if buffer_bytes > MAX_BUFFER_BYTES:
        raise FrameError(
            f"buffer section of {buffer_bytes} bytes exceeds the "
            f"{MAX_BUFFER_BYTES}-byte bound"
        )
    if view.nbytes < offset + buffer_bytes:
        raise TruncatedFrame(
            f"frame announces {buffer_bytes} buffer bytes but only "
            f"{view.nbytes - offset} are present"
        )

    arrays: List[np.ndarray] = []
    pb_buffers: List[object] = []
    blob_arrays: List[np.ndarray] = []
    for entry in table:
        size = _buffer_wire_size(entry)
        raw = view[offset:offset + size]
        offset += size
        if entry[0] == "nd":
            arrays.append(_materialize_entry(entry, raw, writable=False))
        elif entry[0] == "pb":
            pb_buffers.append(zlib.decompress(raw) if entry[2] else raw)
        else:  # blob
            _tag, digest, dtype, shape, order, _nbytes = entry
            stored = blob_cache.get(digest) if blob_cache is not None else None
            if stored is None:
                raise FrameError(
                    f"frame references blob {digest} absent from the local cache"
                )
            blob_arrays.append(materialize(stored, dtype, tuple(shape), order))

    payload = _finish_payload(meta, pb_buffers, arrays, blob_arrays)
    return Message(kind, payload), offset


# -- socket paths ------------------------------------------------------------

def _sendmsg_all(sock: socket.socket, segments: Sequence[object]) -> None:
    """Write every segment with scatter-gather I/O, handling partial sends."""
    views = []
    for seg in segments:
        view = seg if isinstance(seg, memoryview) else memoryview(seg)
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        if view.nbytes:
            views.append(view)
    if not _HAS_SENDMSG:  # e.g. non-POSIX: fall back to sequential writes
        for view in views:
            sock.sendall(view)
        return
    while views:
        sent = sock.sendmsg(views[:_IOV_MAX])
        while sent:
            head = views[0]
            if sent >= head.nbytes:
                sent -= head.nbytes
                views.pop(0)
            else:
                views[0] = head[sent:]
                sent = 0


def _recv_exact_into(sock: socket.socket, view: memoryview, *,
                     at_boundary: bool = False) -> None:
    """Fill ``view`` from the socket or raise.

    ``at_boundary`` distinguishes a clean shutdown (EOF before any byte of a
    new frame -> :class:`ConnectionClosed`) from a peer dying mid-message
    (:class:`TruncatedFrame`) — including inside the out-of-band buffer
    section, which therefore can never deadlock a reader.
    """
    got = 0
    total = view.nbytes
    while got < total:
        count = sock.recv_into(view[got:])
        if count == 0:
            if at_boundary and got == 0:
                raise ConnectionClosed("peer closed the connection")
            raise TruncatedFrame(
                f"stream ended {total - got} bytes short of a complete frame"
            )
        got += count


class _InboundFrame:
    """One frame pulled off a socket, possibly awaiting blob resolution."""

    __slots__ = ("kind", "bytes_read", "blob_entries", "_meta", "_pb",
                 "_arrays")

    def __init__(self, kind: str, bytes_read: int, meta: bytearray,
                 pb_buffers: List[object], arrays: List[np.ndarray],
                 blob_entries: List[tuple]):
        self.kind = kind
        self.bytes_read = bytes_read
        self.blob_entries = blob_entries
        self._meta = meta
        self._pb = pb_buffers
        self._arrays = arrays

    def missing(self, blob_cache: Optional[BlobCache]) -> List[str]:
        """Digests this frame references that the cache cannot serve."""
        return [
            entry[1] for entry in self.blob_entries
            if blob_cache is None or entry[1] not in blob_cache
        ]

    def finish(self, blob_cache: Optional[BlobCache]) -> Message:
        """Materialize blobs and unpickle the payload into a Message."""
        blob_arrays: List[np.ndarray] = []
        for _tag, digest, dtype, shape, order, _nbytes in self.blob_entries:
            stored = blob_cache.get(digest) if blob_cache is not None else None
            if stored is None:
                raise FrameError(
                    f"frame references blob {digest} absent from the local cache"
                )
            blob_arrays.append(materialize(stored, dtype, tuple(shape), order))
        payload = _finish_payload(self._meta, self._pb, self._arrays,
                                  blob_arrays)
        return Message(self.kind, payload)


def _recv_frame(sock: socket.socket) -> _InboundFrame:
    """Read one v2 frame, landing buffers straight in their allocations."""
    prefix = bytearray(PREFIX.size)
    _recv_exact_into(sock, memoryview(prefix), at_boundary=True)
    magic, version = PREFIX.unpack(prefix)
    _check_prefix(magic, version)
    head = bytearray(V2_HEADER.size)
    _recv_exact_into(sock, memoryview(head))
    _flags, kind_len, n_entries, table_len, meta_len = V2_HEADER.unpack(head)
    if kind_len + table_len + meta_len > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame announces {kind_len + table_len + meta_len} metadata "
            f"bytes, over the {MAX_FRAME_BYTES}-byte bound"
        )
    front = bytearray(kind_len + table_len)
    if front:
        _recv_exact_into(sock, memoryview(front))
    kind = bytes(front[:kind_len]).decode("utf-8")
    table = _parse_table(memoryview(front)[kind_len:], n_entries)
    meta = bytearray(meta_len)
    if meta:
        _recv_exact_into(sock, memoryview(meta))

    buffer_bytes = sum(_buffer_wire_size(entry) for entry in table)
    if buffer_bytes > MAX_BUFFER_BYTES:
        raise FrameError(
            f"buffer section of {buffer_bytes} bytes exceeds the "
            f"{MAX_BUFFER_BYTES}-byte bound"
        )

    arrays: List[np.ndarray] = []
    pb_buffers: List[object] = []
    blob_entries: List[tuple] = []
    for entry in table:
        tag = entry[0]
        if tag == "blob":
            blob_entries.append(entry)
            continue
        size = _buffer_wire_size(entry)
        if tag == "nd" and not entry[5]:
            # Uncompressed array: receive straight into the destination
            # allocation — the zero-copy landing pad.
            _t, dtype, shape, order, _nbytes, _clen = entry
            if order == "F":
                arr = np.empty(tuple(reversed(shape)), dtype=np.dtype(dtype))
            else:
                arr = np.empty(tuple(shape), dtype=np.dtype(dtype))
            _recv_exact_into(sock, memoryview(arr).cast("B"))
            arrays.append(arr.T if order == "F" else arr)
            continue
        raw = bytearray(size)
        if raw:
            _recv_exact_into(sock, memoryview(raw))
        if tag == "nd":
            arrays.append(_materialize_entry(entry, raw, writable=True))
        else:  # pb
            pb_buffers.append(
                bytearray(zlib.decompress(raw)) if entry[2] else raw
            )
    total = (PREFIX.size + V2_HEADER.size + len(front) + meta_len
             + buffer_bytes)
    return _InboundFrame(kind, total, meta, pb_buffers, arrays, blob_entries)


def send_message(sock: socket.socket, message: Message,
                 version: int = WIRE_VERSION) -> int:
    """Write one frame to ``sock``; returns the bytes put on the wire."""
    segments, total = encode_frame_segments(message, version)
    _sendmsg_all(sock, segments)
    return total


def recv_message(sock: socket.socket) -> Tuple[Message, int]:
    """Read one frame from ``sock``; returns ``(message, bytes_read)``.

    This cache-less entry point refuses frames carrying blob references —
    use a :class:`FramedConnection` for those.
    """
    frame = _recv_frame(sock)
    return frame.finish(None), frame.bytes_read


# Fields of an InferenceRequest that travel to a worker.  ``future`` stays
# home (a concurrent.futures.Future is process-local by definition) and
# ``deadline``/``enqueued_at`` are coordinator-clock values that would be
# meaningless under the worker's time.monotonic(); the coordinator owns
# deadline enforcement and latency accounting.  ``trace`` ships: the
# TraceContext carries only clock-free identifiers (trace/span ids and the
# sampling bit), and the worker's span *timestamps* are translated back
# into the coordinator's clock at adoption (Tracer.adopt) rather than ever
# comparing monotonic values across hosts.
_REQUEST_WIRE_FIELDS = (
    "mode", "config", "group_key", "fingerprint", "frames_count",
    "batch_size", "seed", "timesteps", "firing_rates", "network", "frames",
    "policy", "trace", "id",
)


def request_to_wire(request: object) -> Dict[str, object]:
    """An :class:`~repro.serve.queue.InferenceRequest` as a picklable dict.

    Everything the worker needs to reproduce the engine pass crosses the
    wire bit-for-bit (configs, seeds, networks, stacked frames, numerics
    policies all pickle losslessly); the process-local fields do not — see
    :data:`_REQUEST_WIRE_FIELDS`.
    """
    return {name: getattr(request, name) for name in _REQUEST_WIRE_FIELDS}


def request_from_wire(data: Dict[str, object]) -> object:
    """Rebuild an ``InferenceRequest`` from its wire dict.

    The rebuilt request carries a *fresh local* future (resolved by the
    worker's own batch execution, never shipped back — only the result is)
    and keeps the coordinator-assigned ``id`` so results correlate.
    """
    from ..serve.queue import InferenceRequest

    return InferenceRequest(**data)


class FramedConnection:
    """Thread-safe framed-message endpoint over one connected socket.

    Multiple threads may send concurrently (a worker's heartbeat thread
    interleaves with its result stream; the coordinator's store-replication
    broadcast interleaves with batch dispatch) — each frame is written
    atomically under the send lock.  Receiving is single-reader by
    convention (one handler/loop thread per connection) but locked anyway.

    With a :class:`~repro.net.blob.BlobCache` attached, the connection runs
    the blob protocol transparently: outgoing arrays at or above
    ``blob_threshold`` travel as digests; an incoming frame whose digests
    miss the local cache parks under the receive lock, a ``__need_blob__``
    frame asks the peer for the bytes, and ``__blob__`` replies (plus any
    interleaved application frames, which are re-queued in arrival order)
    are absorbed until the parked frame resolves.  A peer that cannot serve
    a requested digest produces a :class:`FrameError` — a link error, not a
    hang — and a dead peer surfaces as :class:`TruncatedFrame` from inside
    the wait, so the protocol never deadlocks a reader.

    Byte accounting accumulates in total (``bytes_sent`` /
    ``bytes_received``) and per message kind (:meth:`bytes_by_kind`) for the
    ``net.bytes.<kind>`` telemetry probe; blob-protocol savings are tracked
    in :attr:`blob_stats`.
    """

    def __init__(self, sock: socket.socket, *,
                 blob_cache: Optional[BlobCache] = None,
                 blob_threshold: Optional[int] = None,
                 compress: bool = False):
        self._sock = sock
        self._blob_cache = blob_cache
        self._blob_threshold = (
            BLOB_THRESHOLD_BYTES if blob_threshold is None else blob_threshold
        )
        self._compress = compress
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._bytes_sent = 0
        self._bytes_received = 0
        self._sent_by_kind: Dict[str, int] = {}
        self._received_by_kind: Dict[str, int] = {}
        self._blob_hits = 0
        self._blob_misses = 0
        self._blob_bytes_saved = 0
        self._blob_failed: set = set()
        self._pending: List[_InboundFrame] = []
        self._sends_active = 0
        self._closed = False

    @classmethod
    def connect(cls, address: Tuple[str, int],
                timeout: Optional[float] = None,
                **options: object) -> "FramedConnection":
        """Open a framed connection to ``(host, port)``.

        ``timeout`` bounds the connect; the established stream itself is
        blocking (message waits are governed by the protocol, not the
        socket).  ``options`` forward to the constructor (blob cache,
        threshold, compression).
        """
        sock = socket.create_connection(address, timeout=timeout)
        connection = None
        try:
            sock.settimeout(None)
            connection = cls(sock, **options)
            return connection
        finally:
            if connection is None:
                sock.close()

    # -- messaging ----------------------------------------------------------
    def send(self, kind: str, **payload: object) -> int:
        """Frame and send one message; returns bytes written."""
        # Wire-internal frames must not blob-substitute their own payloads
        # (a __blob__ frame replaced by its digest could never resolve).
        cache = None if kind in _WIRE_KINDS else self._blob_cache
        with self._counter_lock:
            self._sends_active += 1
        try:
            segments, total = encode_frame_segments(
                Message(kind, payload),
                blob_cache=cache,
                blob_threshold=self._blob_threshold,
                compress=self._compress,
            )
            with self._send_lock:
                _sendmsg_all(self._sock, segments)
        finally:
            with self._counter_lock:
                self._sends_active -= 1
        with self._counter_lock:
            self._bytes_sent += total
            self._sent_by_kind[kind] = self._sent_by_kind.get(kind, 0) + total
        return total

    @property
    def sending(self) -> bool:
        """True while any thread is inside :meth:`send`.

        Covers the whole send — encoding (compression included) plus the
        socket write — so a liveness monitor can tell "the link thread is
        busy moving a multi-megabyte frame" apart from "the peer went
        quiet".  A reader blocked on an empty socket is *not* sending.
        """
        with self._counter_lock:
            return self._sends_active > 0

    def recv(self) -> Message:
        """Block for the next application message.

        Wire-internal blob traffic (``__need_blob__`` / ``__blob__``) is
        handled inline and never surfaces here.  Raises the
        :class:`FrameError` family.
        """
        with self._recv_lock:
            while True:
                if self._pending:
                    frame = self._pending.pop(0)
                else:
                    frame = self._read_frame()
                message = self._settle(frame)
                if message is not None:
                    return message

    def _read_frame(self) -> _InboundFrame:
        frame = _recv_frame(self._sock)
        with self._counter_lock:
            self._bytes_received += frame.bytes_read
            self._received_by_kind[frame.kind] = (
                self._received_by_kind.get(frame.kind, 0) + frame.bytes_read
            )
        return frame

    def _settle(self, frame: _InboundFrame) -> Optional[Message]:
        """Resolve one inbound frame; ``None`` for absorbed wire traffic."""
        if frame.kind == NEED_BLOB_KIND:
            self._answer_need_blob(frame)
            return None
        if frame.kind == BLOB_KIND:
            self._absorb_blob(frame)
            return None
        missing = frame.missing(self._blob_cache)
        if frame.blob_entries:
            with self._counter_lock:
                self._blob_misses += len(missing)
                self._blob_hits += len(frame.blob_entries) - len(missing)
                self._blob_bytes_saved += sum(
                    entry[5] for entry in frame.blob_entries
                    if entry[1] not in missing
                )
        if missing:
            if self._blob_cache is None:
                raise FrameError(
                    f"frame references blobs {missing} but this connection "
                    f"has no blob cache"
                )
            self.send(NEED_BLOB_KIND, digests=list(missing))
            self._await_blobs(frame, set(missing))
        return frame.finish(self._blob_cache)

    def _await_blobs(self, parked: _InboundFrame, missing: set) -> None:
        """Absorb frames until every digest in ``missing`` is resolvable."""
        while missing:
            frame = self._read_frame()
            if frame.kind == BLOB_KIND:
                self._absorb_blob(frame)
            elif frame.kind == NEED_BLOB_KIND:
                self._answer_need_blob(frame)
            else:
                # An application frame the peer sent before our request
                # reached it: deliver it after the parked frame, preserving
                # the peer's send order for frames queued behind it.
                self._pending.append(frame)
                continue
            failed = missing & self._blob_failed
            if failed:
                raise FrameError(
                    f"peer cannot serve blobs {sorted(failed)} referenced by "
                    f"a {parked.kind!r} frame"
                )
            missing = {d for d in missing if d not in self._blob_cache}

    def _answer_need_blob(self, frame: _InboundFrame) -> None:
        message = frame.finish(None)
        for digest in message["digests"]:
            stored = (self._blob_cache.get(digest)
                      if self._blob_cache is not None else None)
            if stored is None:
                self.send(BLOB_KIND, digest=digest, found=False)
            else:
                self.send(BLOB_KIND, digest=digest, found=True,
                          data=np.frombuffer(stored, dtype=np.uint8))

    def _absorb_blob(self, frame: _InboundFrame) -> None:
        message = frame.finish(None)
        digest = message["digest"]
        if not message.get("found", True):
            self._blob_failed.add(digest)
            return
        if self._blob_cache is not None:
            self._blob_cache.register(digest, message["data"])

    # -- accounting ---------------------------------------------------------
    @property
    def bytes_sent(self) -> int:
        with self._counter_lock:
            return self._bytes_sent

    @property
    def bytes_received(self) -> int:
        with self._counter_lock:
            return self._bytes_received

    def bytes_by_kind(self) -> Dict[str, Dict[str, int]]:
        """Per-message-kind byte totals: ``{"sent": {...}, "received": {...}}``."""
        with self._counter_lock:
            return {
                "sent": dict(self._sent_by_kind),
                "received": dict(self._received_by_kind),
            }

    @property
    def blob_stats(self) -> Dict[str, int]:
        """Blob-protocol outcome counters for inbound frames."""
        with self._counter_lock:
            return {
                "blob_hits": self._blob_hits,
                "blob_misses": self._blob_misses,
                "blob_bytes_saved": self._blob_bytes_saved,
            }

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Shut the stream down and close the socket (idempotent)."""
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        self._sock.close()

    def __enter__(self) -> "FramedConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
