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
``register_predicate``, ``change_predicate`` — plus ``put_wait``, a
convenience built on ``waitfor``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.core.stabilizer import Stabilizer
from repro.errors import NotPrimaryError
from repro.storage.objectstore import ObjectStore, Value, Version


class PutResult(NamedTuple):
    version: Version
    seq: int  # the Stabilizer sequence number carrying this update


class WanKVStore:
    """See module docstring.  One instance per WAN node."""

    def __init__(
        self,
        stabilizer: Stabilizer,
        store: Optional[ObjectStore] = None,
    ):
        self.stabilizer = stabilizer
        self.sim = stabilizer.sim
        self.name = stabilizer.name
        self.store = store or ObjectStore(clock=lambda: self.sim.now)
        self._owners: Dict[str, str] = {}
        # Last update each key received: (origin, seq) — lets readers wait
        # for a stability level on a specific key.
        self._last_update: Dict[str, Tuple[str, int]] = {}
        stabilizer.on_delivery(self._on_remote_update)

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

    # ------------------------------------------------------------------ reads
    def get(self, key: str) -> Version:
        """The latest locally known version (own pool or mirror)."""
        return self.store.get(key)

    def get_by_time(self, key: str, timestamp: float) -> Version:
        return self.store.get_by_time(key, timestamp)

    def owner(self, key: str) -> Optional[str]:
        return self._owners.get(key)

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
        if not (isinstance(meta, tuple) and len(meta) == 2 and meta[0] == "put"):
            return  # not a K/V record (another app shares the stream)
        key = meta[1]
        self._owners[key] = origin
        self.store._apply(key, payload, record=True)
        self._last_update[key] = (origin, seq)
        self.stabilizer.report_stability("persisted", seq, origin=origin)
