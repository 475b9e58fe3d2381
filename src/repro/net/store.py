"""Cluster-wide result caching: the replicated ``ResultStore`` protocol.

A single-host deployment already memoizes whole ``InferenceResult`` objects
in :class:`repro.session.ResultStore`, keyed on the session fingerprint.
Distributed serving wants the same property *cluster-wide*: a result
computed (or cached) on any host should short-circuit the identical request
everywhere.  Two pieces deliver it:

* :class:`ResultStoreProtocol` — the structural interface every store-like
  object must satisfy (``get``/``put``/``stats``).  The
  coordinator, the workers and :class:`ReplicatedResultStore` all program
  against this protocol, so a plain in-memory store, a disk-backed store
  and a replicated wrapper are interchangeable.
* :class:`ReplicatedResultStore` — wraps a base store; every :meth:`put`
  lands in the base store *and* fires a publish callback carrying the
  ``(fingerprint, result)`` pair, which the coordinator turns into a
  ``store_put`` broadcast to every registered worker.  :meth:`put_many`
  stores a whole results frame's worth of entries and publishes them as
  *one* event (the coordinator's ``store_put_many`` frame) — on a busy
  cluster the per-frame wire and wakeup overhead of replication is paid
  once per batch instead of once per result.  Replicated entries arriving
  *from* a peer are applied with :meth:`apply`, which writes the base
  store without re-publishing (no echo loops).

The resulting flow: worker A computes -> streams results -> coordinator
stores and broadcasts -> worker B's local store now holds the entry -> a
later batch containing the same fingerprint resolves on worker B without an
engine pass, and the coordinator's own admission check
(:meth:`InferenceServer._admit`) short-circuits it before it is even
queued.
"""

from __future__ import annotations

import inspect
import threading
from typing import (
    Callable, Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable,
)

__all__ = ["ReplicatedResultStore", "ResultStoreProtocol"]


@runtime_checkable
class ResultStoreProtocol(Protocol):
    """Structural interface of a result store (see module docstring).

    :class:`repro.session.ResultStore` satisfies it natively;
    :class:`ReplicatedResultStore` satisfies it by delegation, so either
    can back a session, a server or a coordinator.
    """

    def get(self, fingerprint: str) -> Optional[object]:
        """Stored result for ``fingerprint`` or ``None``."""

    def put(self, fingerprint: str, result: object) -> None:
        """Store one result under ``fingerprint``."""

    def stats(self) -> Dict[str, float]:
        """Flat counter/occupancy snapshot."""


class ReplicatedResultStore:
    """A :class:`ResultStoreProtocol` wrapper that publishes every put.

    Parameters
    ----------
    base:
        The store that actually holds results (typically the owning
        session's :class:`~repro.session.ResultStore`).
    publish:
        Called as ``publish(fingerprint, result)`` after every successful
        local :meth:`put`.  ``None`` disables publication (the wrapper then
        only adds the :meth:`apply` inbox and replication counters) — the
        shape worker processes use, since their results travel home inside
        the normal result stream rather than as store messages.
    publish_many:
        Optional batched form, called as ``publish_many(pairs,
        origin=...)`` with a list of ``(fingerprint, result)`` pairs by
        :meth:`put_many`.  Omitted: :meth:`put_many` falls back to one
        ``publish`` call per pair.
    """

    def __init__(
        self,
        base: ResultStoreProtocol,
        publish: Optional[Callable[[str, object], None]] = None,
        publish_many: Optional[Callable[..., None]] = None,
    ):
        self.base = base
        self._publish = publish
        self._publish_many = publish_many
        self._lock = threading.Lock()
        self._published = 0
        self._applied = 0
        # The protocol only requires a two-argument put; ownership-transfer
        # puts (adopt=True, skipping the base store's defensive deep copy)
        # are forwarded only to bases that understand them.
        try:
            self._base_adopts = (
                "adopt" in inspect.signature(base.put).parameters
            )
        except (TypeError, ValueError):
            self._base_adopts = False

    def _base_put(self, fingerprint: str, result: object,
                  adopt: bool = False) -> None:
        if adopt and self._base_adopts:
            self.base.put(fingerprint, result, adopt=True)
        else:
            self.base.put(fingerprint, result)

    # -- protocol surface (delegation) --------------------------------------
    def get(self, fingerprint: str) -> Optional[object]:
        return self.base.get(fingerprint)

    def put(self, fingerprint: str, result: object,
            origin: Optional[str] = None, adopt: bool = False) -> None:
        """Store locally, then publish to peers (see module docstring).

        ``origin`` names the worker the result came from; publishers that
        accept it (the coordinator's replication broadcast) skip that
        worker — its local store already holds the entry, so echoing it
        back would only burn wire bytes.  Publishers with the plain
        two-argument signature keep working: the keyword is only passed
        when an origin is known.  ``adopt`` transfers ownership of a
        wire-decoded ``result`` to the base store (no defensive copy).
        """
        self._base_put(fingerprint, result, adopt=adopt)
        if self._publish is not None:
            if origin is None:
                self._publish(fingerprint, result)
            else:
                self._publish(fingerprint, result, origin=origin)
            with self._lock:
                self._published += 1

    def put_many(self, pairs: Sequence[Tuple[str, object]],
                 origin: Optional[str] = None, adopt: bool = False) -> None:
        """Store a batch of ``(fingerprint, result)`` pairs; publish once.

        With a ``publish_many`` callback the whole batch travels as one
        replication event; without one this degrades to per-pair
        :meth:`put` semantics.  Either way every pair counts toward
        ``replication_published``.
        """
        pairs = list(pairs)
        if not pairs:
            return
        if self._publish_many is not None:
            for fingerprint, result in pairs:
                self._base_put(fingerprint, result, adopt=adopt)
            self._publish_many(pairs, origin=origin)
            with self._lock:
                self._published += len(pairs)
        else:
            for fingerprint, result in pairs:
                self.put(fingerprint, result, origin=origin, adopt=adopt)

    def stats(self) -> Dict[str, float]:
        """The base store's snapshot plus replication counters."""
        snapshot = dict(self.base.stats())
        with self._lock:
            snapshot["replication_published"] = self._published
            snapshot["replication_applied"] = self._applied
        return snapshot

    def __len__(self) -> int:
        return len(self.base)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.base

    # -- replication inbox --------------------------------------------------
    def apply(self, fingerprint: str, result: object,
              adopt: bool = False) -> None:
        """Adopt one entry replicated *from* a peer.

        Writes the base store directly — never re-publishes — so two
        replicating stores pointed at each other converge instead of
        echoing entries back and forth forever.  ``adopt=True`` skips the
        base store's defensive copy (safe: replication entries come off
        the wire, already private to this process).
        """
        self._base_put(fingerprint, result, adopt=adopt)
        with self._lock:
            self._applied += 1
