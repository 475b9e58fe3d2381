"""repro.net — the multi-host serving tier.

A stdlib-only distributed transport (wire protocol v2: zero-copy array
framing over ``sendmsg``/``recv_into``, a content-addressed
:class:`~repro.net.blob.BlobCache` so weights cross each link once, and
optional per-buffer compression — :mod:`~repro.net.framing`) connecting one
:class:`~repro.net.coordinator.Coordinator` — the admission front, a
:class:`~repro.serve.server.InferenceServer` whose queue is drained by
remote hosts — to N :class:`~repro.net.worker.NetWorker` processes that
register with a credit window, heartbeat, execute pushed
fingerprint-compatible micro-batches and stream bit-for-bit results back.
:class:`~repro.net.store.ReplicatedResultStore` makes a cache hit on any
host short-circuit cluster-wide.

Quickstart (two terminals)::

    # terminal 1 — the cluster front
    python -m repro.cli serve --distributed --workers-remote 2

    # or by hand: coordinator here, workers anywhere
    python -m repro.cli worker --connect 127.0.0.1:7433
"""

from .blob import BlobCache, array_digest
from .coordinator import Coordinator, DispatchedBatch
from .framing import (
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
from .store import ReplicatedResultStore, ResultStoreProtocol
from .worker import DEFAULT_CREDIT, NetWorker, spawn_worker

__all__ = [
    "BlobCache",
    "ConnectionClosed",
    "Coordinator",
    "DEFAULT_CREDIT",
    "DispatchedBatch",
    "FrameError",
    "FramedConnection",
    "Message",
    "NetWorker",
    "ReplicatedResultStore",
    "ResultStoreProtocol",
    "TruncatedFrame",
    "VersionMismatch",
    "WIRE_VERSION",
    "array_digest",
    "decode_frame",
    "encode_frame",
    "recv_message",
    "request_from_wire",
    "request_to_wire",
    "send_message",
    "spawn_worker",
]
