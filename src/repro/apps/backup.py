"""The Dropbox-like file backup service (Sections V-A and VI-B).

"A new file can be dropped into the system and then the application can
wait until the data has reached a majority of WAN data centers before
allowing access to the contents."  The service layers a file API over the
WAN K/V store: each uploaded file becomes one K/V record (Stabilizer
splits it into ≤ 8 KB sequenced messages), and the caller picks the
consistency model per upload from the Table III predicates — OneWNode,
OneRegion, MajorityWNodes, MajorityRegions, AllWNodes, AllRegions — or any
custom predicate registered through the DSL.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from repro.apps.kvstore import WanKVStore
from repro.core.stabilizer import Stabilizer
from repro.dsl.stdlib import standard_predicates
from repro.errors import StorageError
from repro.sim.events import Event
from repro.storage.objectstore import Value
from repro.transport.messages import payload_length


class UploadHandle(NamedTuple):
    """What an upload returns: identity plus a stability event."""

    name: str
    size: int
    seq: int  # sequence number of the file's last chunk
    uploaded_at: float
    stable: Event  # triggers when the chosen predicate covers the file


class FileBackupService:
    """See module docstring.  One instance per site, over the K/V store."""

    def __init__(self, kv: WanKVStore):
        self.kv = kv
        self.stabilizer: Stabilizer = kv.stabilizer
        self.sim = kv.sim
        self.name = kv.name
        existing = set(self.stabilizer.engine.predicate_keys())
        config = self.stabilizer.config
        for key, source in standard_predicates(config.groups, config.local).items():
            if key not in existing:
                self.stabilizer.register_predicate(key, source)

    # ------------------------------------------------------------------ uploads
    def upload(
        self, name: str, content: Value, predicate_key: Optional[str] = None
    ) -> UploadHandle:
        """Drop one file into the system.

        ``predicate_key`` selects the consistency model for this upload
        (default: the active predicate).  The returned handle's ``stable``
        event triggers once the whole file — i.e. its last chunk — reaches
        the requested stability.
        """
        if not name:
            raise StorageError("file name must be non-empty")
        result, stable = self.kv.put_wait(
            self._key(name), content, predicate_key
        )
        return UploadHandle(
            name=name,
            size=payload_length(content),
            seq=result.seq,
            uploaded_at=self.sim.now,
            stable=stable,
        )

    # ------------------------------------------------------------------ retrieval
    def download(self, name: str) -> Value:
        """The file's current content at this site (own or mirrored)."""
        return self.kv.get(self._key(name)).value

    def exists(self, name: str) -> bool:
        return self.kv.store.contains(self._key(name))

    def files(self) -> Dict[str, int]:
        """Name -> size of every file known at this site."""
        out = {}
        for key in self.kv.store.keys():
            if key.startswith("file:"):
                out[key[len("file:"):]] = payload_length(
                    self.kv.store.get(key).value
                )
        return out

    # ------------------------------------------------------------------ stability
    def change_predicate(self, key: str, source: Optional[str] = None) -> None:
        self.kv.change_predicate(key, source)

    def get_stability_frontier(self, predicate_key: Optional[str] = None) -> int:
        return self.kv.get_stability_frontier(predicate_key)

    @staticmethod
    def _key(name: str) -> str:
        return f"file:{name}"
