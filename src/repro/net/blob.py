"""Content-addressed blob storage for the repro.net wire protocol.

Large ndarrays cross a :mod:`repro.net` connection **once**: the frame
encoder (:mod:`repro.net.framing`) replaces any eligible array of at least
``BLOB_THRESHOLD_BYTES`` with its content digest, and the receiver
materializes the array from its local :class:`BlobCache` — answering
``__need_blob__`` over the wire only on a miss.  Network weight panels and
repeated frame stacks therefore cost one transfer per worker instead of one
per batch; the saving is counted (``hits`` / ``misses`` / ``bytes_saved``)
and surfaced as ``net.blob.*`` telemetry.

Digests are :func:`hashlib.blake2b` over the array's raw C-layout bytes
(Fortran-ordered arrays hash their transpose's bytes), memoized per live
array object so a 200 MB weight panel is hashed once per process, not once
per dispatch.  The cache stores **read-only** byte views: a sender pins a
zero-copy view of the live array (the exporting array stays alive through
the view), a receiver pins the bytes it pulled off the wire, and every
materialized array is a frozen view over those bytes — shared safely across
the many requests that reference the same digest.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["BlobCache", "array_digest", "array_wire_view", "materialize"]

#: Default byte bound of one :class:`BlobCache` (LRU beyond it).  Generous on
#: purpose: evicting a blob a peer may still re-request turns into a link
#: error and a rescue, so the cache is sized for "all live weight panels".
DEFAULT_MAX_BYTES = 2 << 30

_DIGEST_SIZE = 16

# digest memo: id(array) -> (weakref to the array, digest).  The weakref
# callback evicts the entry when the array dies, so a recycled id() can
# never alias a stale digest.
_memo_lock = threading.Lock()
_digest_memo: Dict[int, Tuple["weakref.ref", str]] = {}


def array_wire_view(array: np.ndarray) -> Tuple[memoryview, str]:
    """``array``'s raw bytes as a flat view, plus its storage order tag.

    C-contiguous arrays expose their own buffer (``'C'``); Fortran-ordered
    arrays expose the transpose's C-contiguous buffer (``'F'``) — both are
    zero-copy.  Callers must only pass contiguous arrays.
    """
    if array.flags.c_contiguous:
        return memoryview(array).cast("B"), "C"
    return memoryview(array.T).cast("B"), "F"


def materialize(buffer, dtype: str, shape: Tuple[int, ...], order: str) -> np.ndarray:
    """Rebuild an array over ``buffer`` (zero-copy; read-only iff the buffer is).

    The inverse of :func:`array_wire_view`: ``order == 'F'`` buffers hold the
    transpose's bytes, so the reshape runs over the reversed shape and is
    transposed back into a Fortran-ordered view.
    """
    flat = np.frombuffer(buffer, dtype=np.dtype(dtype))
    if order == "F":
        return flat.reshape(tuple(reversed(shape))).T
    return flat.reshape(shape)


def array_digest(array: np.ndarray) -> str:
    """Content digest of ``array``'s raw bytes, memoized per live object."""
    key = id(array)
    with _memo_lock:
        entry = _digest_memo.get(key)
        if entry is not None and entry[0]() is array:
            return entry[1]
    view, _order = array_wire_view(array)
    digest = hashlib.blake2b(view, digest_size=_DIGEST_SIZE).hexdigest()
    try:
        ref = weakref.ref(array, lambda _r, _k=key: _digest_memo.pop(_k, None))
    except TypeError:
        return digest  # not weakref-able: still correct, just unmemoized
    with _memo_lock:
        _digest_memo[key] = (ref, digest)
    return digest


class BlobCache:
    """Thread-safe LRU of content-addressed byte blobs (see module docstring).

    One cache per process side: the coordinator shares a single cache across
    every worker link (a blob registered while encoding for one worker
    answers any worker's ``__need_blob__``), and each worker holds its own.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, memoryview]" = OrderedDict()
        self._bytes = 0
        self._evictions = 0

    def register(self, digest: str, buffer) -> None:
        """Pin ``buffer`` (any bytes-like) under ``digest``.

        The stored view is forced read-only, so arrays materialized from the
        cache can never be mutated through a shared blob.
        """
        view = memoryview(buffer).toreadonly()
        with self._lock:
            if digest in self._entries:
                self._entries.move_to_end(digest)
                return
            self._entries[digest] = view
            self._bytes += view.nbytes
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                _old, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._evictions += 1

    def get(self, digest: str) -> Optional[memoryview]:
        """The pinned read-only view for ``digest``, or ``None``."""
        with self._lock:
            view = self._entries.get(digest)
            if view is not None:
                self._entries.move_to_end(digest)
            return view

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "entries": float(len(self._entries)),
                "bytes": float(self._bytes),
                "evictions": float(self._evictions),
            }
