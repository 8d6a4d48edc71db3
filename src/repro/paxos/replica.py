"""One Multi-Paxos replica: proposer + acceptor + learner.

The proposer role is active only at the configured leader (or at a node
that called :meth:`PaxosReplica.become_leader` with a higher ballot).
Phase 1 runs once per ballot; Phase 2 pipelines up to ``window`` instances.
Clients submit at the leader and get an event that succeeds when their
command is *chosen* (accepted by a quorum) — the point at which PhxPaxos
acknowledges a write.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import PaxosError
from repro.paxos.messages import (
    Accept,
    Accepted,
    Ballot,
    Commit,
    Nack,
    Prepare,
    Promise,
)
from repro.sim.events import Event
from repro.transport.endpoint import TransportEndpoint
from repro.transport.messages import Payload, SyntheticPayload

PAXOS_CHANNEL = "paxos"
#: How long the leader batches chosen instances before it broadcasts
#: their commits (virtual seconds).
COMMIT_INTERVAL_S = 0.01

ApplyFn = Callable[[int, Payload, object], None]


class PaxosConfig:
    """Deployment settings shared by every replica; a quorum is a
    majority of them."""

    def __init__(
        self,
        node_names: Sequence[str],
        leader: str,
        window: int = 128,
    ):
        if leader not in node_names:
            raise PaxosError(f"leader {leader!r} not in node list")
        if len(set(node_names)) != len(node_names):
            raise PaxosError("duplicate node names")
        self.node_names = list(node_names)
        self.leader = leader
        self.quorum_size = len(node_names) // 2 + 1
        if window <= 0:
            raise PaxosError("window must be positive")
        self.window = window

    def node_index(self, name: str) -> int:
        return self.node_names.index(name)


class _Proposal:
    __slots__ = ("instance", "payload", "meta", "event", "acks", "chosen", "submitted_at")

    def __init__(self, instance, payload, meta, event, submitted_at):
        self.instance = instance
        self.payload = payload
        self.meta = meta
        self.event = event
        self.acks = 0
        self.chosen = False
        self.submitted_at = submitted_at


class PaxosReplica:
    """See module docstring."""

    def __init__(self, endpoint: TransportEndpoint, config: PaxosConfig):
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.config = config
        self.name = endpoint.node_name
        self.index = config.node_index(self.name)

        # Acceptor state.
        self.promised: Ballot = (0, -1)
        self.accepted: Dict[int, Tuple[Ballot, Payload, object]] = {}

        # Learner state.
        self.committed_up_to = 0
        self._applied_up_to = 0
        self.on_apply: Optional[ApplyFn] = None

        # Proposer state.
        self.ballot: Ballot = (0, self.index)
        self.leader_ready = False
        self._phase1_promises: Dict[int, Promise] = {}
        self._next_instance = 1
        self._proposals: Dict[int, _Proposal] = {}
        self._queue: List[Tuple[Payload, object, Event]] = []
        self._inflight = 0
        self._chosen_flags: Dict[int, bool] = {}
        self._commit_point = 0
        self._commit_timer = None
        self._last_broadcast_commit = 0
        self.max_round_seen = 0
        self._campaigning = False

        self._peers = [n for n in config.node_names if n != self.name]
        endpoint.accept(PAXOS_CHANNEL, self._on_message)

        if self.name == config.leader:
            self.become_leader()

    # ------------------------------------------------------------------ client API
    def submit(self, payload: Payload, meta=None) -> Event:
        """Propose one command; the event succeeds at commit with a dict
        ``{instance, submitted_at, committed_at}``."""
        if not self.is_campaigning():
            raise PaxosError(f"{self.name} is not the leader")
        event = self.sim.event()
        self._queue.append((payload, meta, event))
        self._drain_queue()
        return event

    def is_leader(self) -> bool:
        return self.leader_ready

    def is_campaigning(self) -> bool:
        """Leading or running Phase 1 for the leadership."""
        return self.leader_ready or self._campaigning

    def become_leader(self) -> None:
        """Start Phase 1 with a ballot higher than any seen."""
        self.leader_ready = False
        self._campaigning = True
        self._phase1_promises = {}
        self.max_round_seen += 1
        self.ballot = (self.max_round_seen, self.index)
        prepare = Prepare(ballot=self.ballot, from_instance=self._commit_point + 1)
        # Self-promise without the network.
        self._handle_prepare(self.name, prepare)
        for peer in self._peers:
            self._send(peer, prepare)

    # ------------------------------------------------------------------ transport
    def _send(self, peer: str, msg) -> None:
        self.endpoint.channel(peer, PAXOS_CHANNEL).send(
            SyntheticPayload(msg.wire_size()), meta=msg
        )

    def _on_message(self, peer: str, _payload, msg) -> None:
        if isinstance(msg, Prepare):
            self._handle_prepare(peer, msg)
        elif isinstance(msg, Promise):
            self._handle_promise(peer, msg)
        elif isinstance(msg, Accept):
            self._handle_accept(peer, msg)
        elif isinstance(msg, Accepted):
            self._handle_accepted(peer, msg)
        elif isinstance(msg, Commit):
            self._handle_commit(msg)
        elif isinstance(msg, Nack):
            self._handle_nack(msg)
        else:
            raise PaxosError(f"unknown paxos message {type(msg).__name__}")

    # ------------------------------------------------------------------ acceptor
    def _handle_prepare(self, peer: str, msg: Prepare) -> None:
        self.max_round_seen = max(self.max_round_seen, msg.ballot[0])
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            relevant = {
                inst: entry
                for inst, entry in self.accepted.items()
                if inst >= msg.from_instance
            }
            promise = Promise(ballot=msg.ballot, accepted=relevant)
            if peer == self.name:
                self._handle_promise(self.name, promise)
            else:
                self._send(peer, promise)
        elif peer != self.name:
            self._send(peer, Nack(promised=self.promised, instance=None))

    def _handle_accept(self, peer: str, msg: Accept) -> None:
        self.max_round_seen = max(self.max_round_seen, msg.ballot[0])
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self.accepted[msg.instance] = (msg.ballot, msg.payload, msg.meta)
            reply = Accepted(ballot=msg.ballot, instance=msg.instance)
            if peer == self.name:
                self._handle_accepted(self.name, reply)
            else:
                self._send(peer, reply)
            self._apply_ready()
        elif peer != self.name:
            self._send(peer, Nack(promised=self.promised, instance=msg.instance))

    # ------------------------------------------------------------------ proposer
    def _handle_promise(self, peer: str, msg: Promise) -> None:
        if msg.ballot != self.ballot or self.leader_ready:
            return
        self._phase1_promises[self.config.node_index(peer)] = msg
        if len(self._phase1_promises) < self.config.quorum_size:
            return
        # Quorum of promises: adopt the highest-ballot accepted value per
        # instance, then open for business.
        merged: Dict[int, Tuple[Ballot, Payload, object]] = {}
        for promise in self._phase1_promises.values():
            for inst, (ballot, payload, meta) in promise.accepted.items():
                if inst not in merged or ballot > merged[inst][0]:
                    merged[inst] = (ballot, payload, meta)
        self.leader_ready = True
        if merged:
            self._next_instance = max(merged) + 1
            for inst in sorted(merged):
                _ballot, payload, meta = merged[inst]
                self._propose_instance(inst, payload, meta, event=None)
        else:
            self._next_instance = max(self._next_instance, self._commit_point + 1)
        self._drain_queue()

    def _drain_queue(self) -> None:
        while (
            self.leader_ready
            and self._queue
            and self._inflight < self.config.window
        ):
            payload, meta, event = self._queue.pop(0)
            instance = self._next_instance
            self._next_instance += 1
            self._propose_instance(instance, payload, meta, event)

    def _propose_instance(self, instance, payload, meta, event) -> None:
        proposal = _Proposal(instance, payload, meta, event, self.sim.now)
        self._proposals[instance] = proposal
        self._inflight += 1
        accept = Accept(
            ballot=self.ballot, instance=instance, payload=payload, meta=meta
        )
        self._handle_accept(self.name, accept)  # self-accept
        for peer in self._peers:
            self._send(peer, accept)

    def _handle_accepted(self, peer_or_self, msg: Accepted) -> None:
        if msg.ballot != self.ballot:
            return
        proposal = self._proposals.get(msg.instance)
        if proposal is None or proposal.chosen:
            return
        proposal.acks += 1
        if proposal.acks < self.config.quorum_size:
            return
        proposal.chosen = True
        self._inflight -= 1
        self._chosen_flags[msg.instance] = True
        while self._chosen_flags.get(self._commit_point + 1):
            self._commit_point += 1
        if proposal.event is not None:
            proposal.event.succeed(
                {
                    "instance": msg.instance,
                    "submitted_at": proposal.submitted_at,
                    "committed_at": self.sim.now,
                }
            )
        self._schedule_commit_broadcast()
        self._handle_commit(Commit(up_to_instance=self._commit_point))
        self._drain_queue()

    def _handle_nack(self, msg: Nack) -> None:
        self.max_round_seen = max(self.max_round_seen, msg.promised[0])
        if self.ballot[1] == self.index and msg.promised > self.ballot:
            # Someone outbid us; if we still think we lead, retry higher.
            if self.leader_ready or self._phase1_promises:
                self.become_leader()

    # ------------------------------------------------------------------ learner
    def _schedule_commit_broadcast(self) -> None:
        if self._commit_timer is not None:
            return
        self._commit_timer = self.sim.call_later(
            COMMIT_INTERVAL_S, self._broadcast_commit
        )

    def _broadcast_commit(self) -> None:
        self._commit_timer = None
        if self._commit_point <= self._last_broadcast_commit:
            return
        self._last_broadcast_commit = self._commit_point
        msg = Commit(up_to_instance=self._commit_point)
        for peer in self._peers:
            self._send(peer, msg)

    def _handle_commit(self, msg: Commit) -> None:
        if msg.up_to_instance > self.committed_up_to:
            self.committed_up_to = msg.up_to_instance
            self._apply_ready()

    def _apply_ready(self) -> None:
        while self._applied_up_to < self.committed_up_to:
            entry = self.accepted.get(self._applied_up_to + 1)
            if entry is None:
                return  # gap: wait for the value to arrive
            self._applied_up_to += 1
            if self.on_apply is not None:
                _ballot, payload, meta = entry
                self.on_apply(self._applied_up_to, payload, meta)

    # ------------------------------------------------------------------ inspection
    def inflight(self) -> int:
        return self._inflight

    def queued(self) -> int:
        return len(self._queue)
