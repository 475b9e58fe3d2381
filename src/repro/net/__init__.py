"""repro.net — the multi-host serving tier.

A stdlib-only distributed transport (wire protocol v3: zero-copy array
framing over ``sendmsg``/``recv_into`` and a content-addressed
:class:`~repro.net.blob.BlobCache` so weights cross each link once —
:mod:`~repro.net.framing`) connecting one
:class:`~repro.net.coordinator.Coordinator` — the admission front, a
:class:`~repro.serve.server.InferenceServer` whose queue is drained by
remote hosts — to N :class:`~repro.net.worker.NetWorker` processes that
register with a credit window, heartbeat, execute pushed
fingerprint-compatible micro-batches under the coordinator's hardware
models and stream bit-for-bit results back.  The coordinator's session
:class:`~repro.session.ResultStore` is the cluster's one result cache:
every result lands there, and an identical request resolves from it at
admission or at dispatch without reaching a worker.

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
    request_from_wire,
    request_to_wire,
)
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
    "TruncatedFrame",
    "VersionMismatch",
    "WIRE_VERSION",
    "array_digest",
    "request_from_wire",
    "request_to_wire",
    "spawn_worker",
]
