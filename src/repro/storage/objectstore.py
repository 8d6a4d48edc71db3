"""A single-site, versioned object store (the Derecho object store's role).

Every ``put`` creates a new immutable version stamped with a monotonic
version number and a timestamp, supporting the Derecho-style API surface
the paper's K/V integration uses: ``put``, ``get``, ``get_by_time``, plus
watchers that the geo-replication layer hooks to learn about local
updates.  An optional :class:`~repro.storage.log.AppendLog` makes the
store durable.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, NamedTuple, Optional, Union

from repro.errors import StorageError
from repro.storage.log import AppendLog
from repro.transport.messages import SyntheticPayload

WatchFn = Callable[[str, "Version"], None]

Value = Union[bytes, SyntheticPayload]


class Version(NamedTuple):
    """One immutable version of one key.

    ``value`` is ``bytes``, or a :class:`SyntheticPayload` when the
    experiment models content by size only (the paper's "files filled
    with random bytes").
    """

    key: str
    value: Value
    version: int  # per-key, 1-based
    timestamp: float  # store-level time of the put


class ObjectStore:
    """See module docstring.

    ``clock`` supplies timestamps (the simulator's ``now`` in experiments,
    ``time.time`` in the threaded runtime).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        log: Optional[AppendLog] = None,
    ):
        self._clock = clock
        self._log = log
        self._history: Dict[str, List[Version]] = {}
        self._watchers: List[WatchFn] = []
        self.puts = 0
        if log is not None and len(log):
            self._replay()

    # -- mutations ------------------------------------------------------------
    def put(self, key: str, value: Value) -> Version:
        """Store a new version of ``key``; returns it."""
        if not isinstance(key, str) or not key:
            raise StorageError("keys are non-empty strings")
        if isinstance(value, bytearray):
            value = bytes(value)
        elif not isinstance(value, (bytes, SyntheticPayload)):
            raise StorageError(
                f"values are bytes or SyntheticPayload, got {type(value).__name__}"
            )
        return self._apply(key, value, record=True)

    def _apply(
        self,
        key: str,
        value: Value,
        record: bool,
        timestamp: Optional[float] = None,
    ) -> Version:
        history = self._history.setdefault(key, [])
        next_version = history[-1].version + 1 if history else 1
        version = Version(
            key=key,
            value=value,
            version=next_version,
            timestamp=self._clock() if timestamp is None else timestamp,
        )
        history.append(version)
        self.puts += 1
        if record and self._log is not None:
            if isinstance(value, SyntheticPayload):
                encoded = {"synthetic": value.length}
            else:
                encoded = {"value": value.hex()}
            encoded.update({"key": key, "timestamp": version.timestamp})
            self._log.append(json.dumps(encoded).encode())
        for watcher in self._watchers:
            watcher(key, version)
        return version

    # -- reads ------------------------------------------------------------------
    def get(self, key: str) -> Version:
        """The latest version of ``key`` (raises on a missing key)."""
        history = self._history.get(key)
        if not history:
            raise StorageError(f"unknown key {key!r}")
        return history[-1]

    def get_by_time(self, key: str, timestamp: float) -> Version:
        """The version that was current at ``timestamp`` (Derecho's
        temporal query)."""
        history = self._history.get(key)
        if not history:
            raise StorageError(f"unknown key {key!r}")
        candidate = None
        for version in history:
            if version.timestamp <= timestamp:
                candidate = version
            else:
                break
        if candidate is None:
            raise StorageError(
                f"key {key!r} did not exist at t={timestamp}"
            )
        return candidate

    def contains(self, key: str) -> bool:
        return key in self._history

    def keys(self) -> List[str]:
        return list(self._history)

    def history(self, key: str) -> List[Version]:
        return list(self._history.get(key, ()))

    # -- watchers ----------------------------------------------------------------
    def watch(self, fn: WatchFn) -> None:
        """Call ``fn(key, version)`` after every applied mutation."""
        self._watchers.append(fn)

    # -- recovery -----------------------------------------------------------------
    def _replay(self) -> None:
        for record in self._log.records():
            try:
                entry = json.loads(record.payload)
                if "synthetic" in entry:
                    value: Value = SyntheticPayload(entry["synthetic"])
                else:
                    value = bytes.fromhex(entry["value"])
                self._apply(
                    entry["key"],
                    value,
                    record=False,
                    timestamp=entry["timestamp"],
                )
            except (KeyError, ValueError) as exc:
                raise StorageError(
                    f"corrupt log record {record.index}: {exc}"
                ) from exc
