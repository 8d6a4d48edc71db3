"""The Quorum protocol expressed with Stabilizer (Section IV-B, Fig. 3).

"A successful read operation returns the latest version of the responses
from at least Nr replicas ... a successful write operation must write to
at least Nw replicas ... Nw + Nr > N."  Writes ride the normal Stabilizer
mirroring path and complete when the *write predicate* reports that Nw
quorum members hold the data; reads poll the members directly and finish
on the Nr-th response (the paper's Fig. 3 setup: the local member answers
instantly, so read latency tracks the RTT of the (Nr-1)-th fastest remote
member — Wisconsin, in their deployment).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.apps.kvstore import PutResult, WanKVStore
from repro.errors import QuorumError
from repro.sim.events import Event
from repro.storage.objectstore import Value
from repro.transport.messages import SyntheticPayload, payload_length

QUORUM_CHANNEL = "quorum.rpc"
REQUEST_BYTES = 48
RESPONSE_HEADER_BYTES = 48
WRITE_PREDICATE_KEY = "quorum_write"

_read_ids = itertools.count(1)


class ReadResult(NamedTuple):
    key: str
    value: Optional[Value]
    version: int  # 0 when no responder knew the key
    responders: List[str]


class QuorumKV:
    """One site's endpoint of a quorum group; see module docstring."""

    def __init__(
        self,
        kv: WanKVStore,
        members: Sequence[str],
        nw: Optional[int] = None,
        nr: Optional[int] = None,
    ):
        n = len(members)
        if n == 0 or len(set(members)) != n:
            raise QuorumError("members must be a non-empty set of distinct sites")
        for member in members:
            if member not in kv.stabilizer.config.node_names:
                raise QuorumError(f"unknown member site {member!r}")
        self.kv = kv
        self.sim = kv.sim
        self.name = kv.name
        self.members = list(members)
        self.nw = nw if nw is not None else n // 2 + 1
        self.nr = nr if nr is not None else n - self.nw + 1
        if not 1 <= self.nw <= n or not 1 <= self.nr <= n:
            raise QuorumError(f"quorum sizes out of range: Nw={self.nw} Nr={self.nr}")
        if self.nw + self.nr <= n:
            raise QuorumError(
                f"Nw + Nr must exceed N for overlap: {self.nw}+{self.nr} <= {n}"
            )
        # The write predicate: at least Nw members acknowledged.
        terms = ", ".join(f"$WNODE_{m}" for m in self.members)
        source = f"KTH_MAX({self.nw}, {terms})"
        stabilizer = kv.stabilizer
        if WRITE_PREDICATE_KEY not in stabilizer.engine.predicate_keys():
            stabilizer.register_predicate(WRITE_PREDICATE_KEY, source)
        # RPC plumbing for quorum reads.
        self._pending: Dict[int, dict] = {}
        stabilizer.endpoint.accept(QUORUM_CHANNEL, self._on_rpc)

    # ------------------------------------------------------------------ writes
    def write(self, key: str, value: Value):
        """Quorum write: returns ``(PutResult, event)``; the event succeeds
        once at least Nw members hold the update."""
        result: PutResult = self.kv.put(key, value)
        event = self.kv.stabilizer.waitfor(result.seq, WRITE_PREDICATE_KEY)
        return result, event

    # ------------------------------------------------------------------ reads
    def read(self, key: str) -> Event:
        """Quorum read: an event yielding a :class:`ReadResult` built from
        the first Nr member responses (highest version wins)."""
        read_id = next(_read_ids)
        event = self.sim.event()
        state = {"responses": [], "event": event, "key": key}
        self._pending[read_id] = state
        for member in self.members:
            if member == self.name:
                version, seq, value = self._local_lookup(key)
                self._record_response(read_id, self.name, version, value)
            else:
                self.kv.stabilizer.endpoint.channel(member, QUORUM_CHANNEL).send(
                    SyntheticPayload(REQUEST_BYTES), meta=("req", read_id, key)
                )
        return event

    # ------------------------------------------------------------------ internals
    def _local_lookup(self, key: str):
        store = self.kv.store
        if store.contains(key):
            version = store.get(key)
            return version.version, 0, version.value
        return 0, 0, None

    def _on_rpc(self, peer: str, payload, meta) -> None:
        kind = meta[0]
        if kind == "req":
            _kind, read_id, key = meta
            version, _seq, value = self._local_lookup(key)
            size = RESPONSE_HEADER_BYTES + (
                payload_length(value) if value is not None else 0
            )
            self.kv.stabilizer.endpoint.channel(peer, QUORUM_CHANNEL).send(
                SyntheticPayload(size), meta=("resp", read_id, version, value)
            )
        elif kind == "resp":
            _kind, read_id, version, value = meta
            self._record_response(read_id, peer, version, value)
        else:
            raise QuorumError(f"unknown quorum RPC {kind!r}")

    def _record_response(self, read_id: int, member: str, version: int, value) -> None:
        state = self._pending.get(read_id)
        if state is None:
            return  # read already completed; late response ignored
        state["responses"].append((member, version, value))
        if len(state["responses"]) < self.nr:
            return
        del self._pending[read_id]
        best = max(state["responses"], key=lambda r: r[1])
        state["event"].succeed(
            ReadResult(
                key=state["key"],
                value=best[2],
                version=best[1],
                responders=[r[0] for r in state["responses"]],
            )
        )
