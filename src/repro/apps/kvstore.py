"""The geo-replicated K/V store (Section V-A).

"Our enhanced version offers each WAN node (each data center) the ability
to originate K/V updates to local data, but to read K/V data from any WAN
node. ... When a client calls put, the Derecho stores data locally, then
Stabilizer buffers the new records and starts an asynchronous transfer to
mirror the data remotely.  Thus, the semantic of put is that upon
completion the action is locally stable.  A client seeking a stronger
guarantee would request a stability frontier matched to the consistency
model."

The primary-site rule: the first site to create a key owns it; only the
owner may update it, and every other site keeps a read-only mirror.  The
store exposes the paper's added APIs — ``get_stability_frontier``,
``register_predicate``, ``change_predicate`` — plus ``put_wait`` /
``read_stable`` conveniences built on ``waitfor``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import itertools

from repro.core.stabilizer import Stabilizer
from repro.errors import NotPrimaryError, StorageError
from repro.sim.events import Event
from repro.storage.objectstore import ObjectStore, Value, Version
from repro.transport.messages import SyntheticPayload, payload_length

FORWARD_CHANNEL = "kv.forward"
FORWARD_HEADER_BYTES = 48
_forward_ids = itertools.count(1)


class PutResult(NamedTuple):
    version: Version
    seq: int  # the Stabilizer sequence number carrying this update


class WanKVStore:
    """See module docstring.  One instance per WAN node."""

    def __init__(
        self,
        stabilizer: Stabilizer,
        store: Optional[ObjectStore] = None,
        persist_delay_s: float = 0.0,
    ):
        self.stabilizer = stabilizer
        self.sim = stabilizer.sim
        self.name = stabilizer.name
        self.store = store or ObjectStore(clock=lambda: self.sim.now)
        self.persist_delay_s = persist_delay_s
        self._owners: Dict[str, str] = {}
        # Last update each key received: (origin, seq) — lets readers wait
        # for a stability level on a specific key.
        self._last_update: Dict[str, Tuple[str, int]] = {}
        stabilizer.on_delivery(self._on_remote_update)
        # Write forwarding: a non-owner routes the write to the primary
        # and learns the assigned sequence number back.
        self._forward_pending: Dict[int, Event] = {}
        stabilizer.endpoint.accept(FORWARD_CHANNEL, self._on_forward)

    # ------------------------------------------------------------------ writes
    def put(self, key: str, value: Value) -> PutResult:
        """Write locally and start asynchronous mirroring.

        On return the update is *locally stable* only.  Raises
        :class:`NotPrimaryError` at any site that does not own the key.
        """
        owner = self._owners.get(key)
        if owner is not None and owner != self.name:
            raise NotPrimaryError(
                f"key {key!r} is owned by {owner!r}; writes must go there"
            )
        self._owners[key] = self.name
        version = self.store.put(key, value)
        seq = self.stabilizer.send(value, meta=("put", key))
        self._last_update[key] = (self.name, seq)
        return PutResult(version, seq)

    def put_wait(self, key: str, value: Value, predicate_key: Optional[str] = None):
        """``put`` plus an event for the requested stability level."""
        result = self.put(key, value)
        return result, self.stabilizer.waitfor(result.seq, predicate_key)

    def put_forwarded(self, key: str, value: Value) -> Event:
        """Write from *any* site: forwarded to the key's primary.

        The primary-site rule stands — only the owner applies the write —
        but a non-owner may route it there.  Returns an event yielding the
        sequence number the primary assigned (after one round trip); the
        caller can then ``waitfor`` any stability level on the owner's
        stream.  A locally-owned (or fresh) key writes directly.
        """
        owner = self._owners.get(key)
        if owner is None or owner == self.name:
            event = self.sim.event()
            event.succeed(self.put(key, value).seq)
            return event
        forward_id = next(_forward_ids)
        event = self.sim.event()
        self._forward_pending[forward_id] = event
        self.stabilizer.endpoint.channel(owner, FORWARD_CHANNEL).send(
            value if payload_length(value) > 0 else SyntheticPayload(0),
            meta=("fwd_put", forward_id, key),
        )
        return event

    def _on_forward(self, peer: str, payload, meta) -> None:
        kind = meta[0]
        if kind == "fwd_put":
            _kind, forward_id, key = meta
            owner = self._owners.get(key)
            if owner is not None and owner != self.name:
                reply = ("fwd_nak", forward_id, owner)
            else:
                result = self.put(key, payload)
                reply = ("fwd_ack", forward_id, result.seq)
            self.stabilizer.endpoint.channel(peer, FORWARD_CHANNEL).send(
                SyntheticPayload(FORWARD_HEADER_BYTES), meta=reply
            )
        elif kind == "fwd_ack":
            _kind, forward_id, seq = meta
            event = self._forward_pending.pop(forward_id, None)
            if event is not None:
                event.succeed(seq)
        elif kind == "fwd_nak":
            _kind, forward_id, actual_owner = meta
            event = self._forward_pending.pop(forward_id, None)
            if event is not None:
                event.fail(
                    NotPrimaryError(
                        f"forwarded write bounced: key owned by {actual_owner!r}"
                    )
                )
        else:
            raise StorageError(f"unknown forward message {kind!r}")

    def delete(self, key: str) -> PutResult:
        owner = self._owners.get(key)
        if owner is None:
            raise StorageError(f"unknown key {key!r}")
        if owner != self.name:
            raise NotPrimaryError(f"key {key!r} is owned by {owner!r}")
        version = self.store.delete(key)
        seq = self.stabilizer.send(b"", meta=("del", key))
        self._last_update[key] = (self.name, seq)
        return PutResult(version, seq)

    # ------------------------------------------------------------------ reads
    def get(self, key: str) -> Version:
        """The latest locally known version (own pool or mirror)."""
        return self.store.get(key)

    def get_by_time(self, key: str, timestamp: float) -> Version:
        return self.store.get_by_time(key, timestamp)

    def owner(self, key: str) -> Optional[str]:
        return self._owners.get(key)

    def read_stable(self, key: str, predicate_key: Optional[str] = None) -> Event:
        """An event yielding the key's version once its most recent update
        satisfies the predicate — "the client can access data only after
        the desired level of stability is assured" (Section I)."""
        origin, seq = self._last_update.get(key, (None, None))
        if origin is None:
            raise StorageError(f"unknown key {key!r}")
        wait = self.stabilizer.waitfor(seq, predicate_key, origin=origin)
        event = self.sim.event()
        wait.add_callback(lambda _e: event.succeed(self.store.get(key)))
        return event

    # ------------------------------------------------------------------ stability API
    def get_stability_frontier(
        self, predicate_key: Optional[str] = None, origin: Optional[str] = None
    ) -> int:
        return self.stabilizer.get_stability_frontier(predicate_key, origin)

    def register_predicate(self, key: str, source: str) -> None:
        self.stabilizer.register_predicate(key, source)

    def change_predicate(self, key: str, source: Optional[str] = None) -> None:
        self.stabilizer.change_predicate(key, source)

    # ------------------------------------------------------------------ mirroring
    def _on_remote_update(self, origin: str, seq: int, payload, meta) -> None:
        if not (isinstance(meta, tuple) and len(meta) == 2):
            return  # not a K/V record (another app shares the stream)
        kind, key = meta
        if kind == "put":
            self._owners[key] = origin
            self.store._apply(key, payload, tombstone=False, record=True)
        elif kind == "del":
            self._owners[key] = origin
            self.store._apply(key, b"", tombstone=True, record=True)
        else:
            return
        self._last_update[key] = (origin, seq)
        if self.persist_delay_s > 0:
            self.sim.call_later(
                self.persist_delay_s, self._report_persisted, origin, seq
            )
        else:
            self._report_persisted(origin, seq)

    def _report_persisted(self, origin: str, seq: int) -> None:
        self.stabilizer.report_stability("persisted", seq, origin=origin)
