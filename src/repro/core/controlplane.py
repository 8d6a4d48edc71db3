"""The control carrier every stabilization engine ships its frames on.

Section III-A: control information is held in the message ACK recorder and
updated on every report; the control plane streams reports "aggressively as
long as data or receive buffering capacity is available", and monotonicity
lets a batch of actions be reported with a single upcall — "the upcall for
Y implies the stability of messages prior to Y".

This module holds the strategy-agnostic half of that:
:class:`ControlChannelSet` carries state frames as unreliable datagrams and
owns what every engine shares — loss repair by re-sending state, epoch
fencing, liveness heartbeats, the resume broadcast, and frame/byte
accounting.  What the
frames *say* (ACK reports, sequencer floors, clock vectors), when they are
batched and how they fill the ACK tables is the engine's business: see
:class:`~repro.core.strategy.StabilizationStrategy`, which builds one
carrier per node and hands it its two callbacks (``on_frame``,
``full_state``) at construction.  The carrier is composed, never
subclassed (``tests/core/test_import_lint.py`` keeps it so).

The carrier also holds **interest**: which origin streams each node
observes.  A node whose engine passes an ``interest`` callback advertises
the origins it wants live reports about and remembers what every peer
advertised; :attr:`ControlChannelSet.observers` is the resulting
``origin -> peers`` routing table an engine *may* send by (the ACK-table
engine does; the bulk-set engines broadcast and never look).  The polarity
is fail-safe — see :meth:`ControlChannelSet.announce_interest`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.core.config import StabilizerConfig
from repro.transport.endpoint import TransportEndpoint
from repro.transport.fifo import TRANSPORT_HEADER_BYTES
from repro.transport.messages import (
    ControlFrame,
    InterestFrame,
    ResumeFrame,
    SyntheticPayload,
)

CONTROL_CHANNEL = "stab.ctrl"
# How long the stream must be silent before the last frame to a peer is
# repaired by a re-send of the full state (the tail probe).
TAIL_PROBE_S = 0.05

HeardFn = Callable[[str], None]
# (peer name, {origin_index -> highest received seq} the peer already has)
ResumeFn = Callable[[str, Dict[int, int]], None]
# (peer name, engine-specific control frame)
FrameFn = Callable[[str, object], None]
# peer name -> the frames that rebuild this node's engine state there
FullStateFn = Callable[[str], Sequence[object]]
# () -> the origins this node observes now
InterestFn = Callable[[], Iterable[str]]


class ControlChannelSet:
    """The strategy-agnostic control carrier; see module docstring.

    One instance per node (per shard stack, under sharding).  Engines use
    :meth:`send_frame` / :meth:`broadcast_frame` for their protocol
    traffic and receive every inbound frame that says something via
    ``on_frame``; the carrier itself owns epoch fencing, loss repair,
    the liveness heartbeat, and the resume (crash-restart catch-up)
    broadcast that every engine shares.

    Frames travel as datagrams — unordered, lossy, possibly duplicated —
    so an engine may only send *state*: absolute, monotone values the
    receiver max-merges.  The carrier repairs loss by re-sending the
    engine's full state (the ``full_state`` callback): once per peer of
    the last frame when the stream falls silent for
    :data:`TAIL_PROBE_S` (the tail probe), and to every peer on every
    heartbeat tick (anti-entropy).  Only :class:`ResumeFrame`, a request
    rather than state, rides a reliable channel, created on first use.
    """

    def __init__(
        self,
        endpoint: TransportEndpoint,
        config: StabilizerConfig,
        on_frame: FrameFn,
        full_state: FullStateFn,
        on_heard: HeardFn,
        on_resume: ResumeFn,
        interest: Optional[InterestFn] = None,
    ):
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.config = config
        # Engine upcall for every inbound frame that is neither a resume
        # request nor a bare heartbeat.
        self.on_frame = on_frame
        # peer -> the frames that rebuild this node's state at that peer.
        self.full_state = full_state
        self.on_heard = on_heard
        self.on_resume = on_resume
        self.local_index = config.local_index
        # Epoch fencing (as in the data plane): control reports carry
        # table row indices, which only mean anything within one epoch's
        # owner set — a stale report must be fenced, not applied.
        self.epoch = config.shard_epoch
        self.stale_epoch_frames = 0
        self._peers = list(config.remote_names())
        endpoint.on_datagram = self._on_control
        endpoint.accept(
            CONTROL_CHANNEL,
            lambda peer, _payload, body: self._on_control(peer, body),
            **config.channel_kwargs(),
        )
        self.frames_sent = 0
        self.frames_received = 0
        # Total control-frame wire bytes offered to the transport — the
        # fan-out cost a shard's owner-set routing is meant to cut.
        self.bytes_sent = 0
        self.tail_probes = 0
        # Tail probe: the last frame to a peer has no successor to
        # supersede it, so its loss must be repaired by a re-send.
        self._probe_timer = None
        self._tail_at = 0.0
        self._tail_peers: list = []
        # Heartbeats: proof of life for the failure detector, and the
        # anti-entropy round that repairs what the tail probe cannot (a
        # quiet origin's cell while another stream keeps the carrier busy;
        # every cell at a node that does not observe its origin, which is
        # therefore at most this stale).
        self.heartbeat_interval = config.failure_timeout_s / 3.0
        self._heartbeat_timer = self.sim.call_later(
            self.heartbeat_interval, self._heartbeat_tick
        )
        self._closed = False
        # Observability (installed on the endpoint before construction).
        self.tracer = endpoint.tracer
        self._trace_node = config.local
        # Interest (see announce_interest).  Every origin is what a node
        # that never said otherwise observes — the one statement that is
        # never put on the wire.
        self._interest_fn = interest
        self._all_origins = frozenset(config.node_names)
        #: What this node has told its peers it observes.
        self.interest: FrozenSet[str] = self._all_origins
        # The current statement as a frame; None until the first one.
        self._interest_frame: Optional[InterestFrame] = None
        # What each peer said, and the version it said it in; a peer that
        # said nothing is in neither.
        self._peer_interest: Dict[str, FrozenSet[str]] = {}
        self._peer_versions: Dict[str, int] = {}
        #: origin -> the peers that observe it, in deployment order:
        #: whom a live report about that origin is for.
        self.observers: Dict[str, List[str]] = {}
        self._rebuild_observers()
        #: Interest statements sent as datagrams of their own (per peer).
        self.interest_announcements = 0
        # Start-up: registering predicates and attaching monitors all
        # happen at this instant, so what the node observes is only known
        # once they have — tell the peers then, in one statement, and
        # before any of them has flushed a report.
        if interest is not None and self._current_interest() != self.interest:
            self.sim.call_later(0.0, self.announce_interest, True)

    # -- outbound -------------------------------------------------------------------
    def send_frame(self, peer: str, frame) -> int:
        """Ship one epoch-tagged state frame to ``peer`` as one datagram
        and arm the tail probe behind it; returns its wire size (already
        added to the byte counters)."""
        now = self.sim.now
        if now != self._tail_at:
            self._tail_at = now
            self._tail_peers = []
        self._tail_peers.append(peer)
        if self._probe_timer is None:
            self._probe_timer = self.sim.call_later(
                TAIL_PROBE_S, self._probe_tick
            )
        # _ship without a rider, inline: this runs once per report per peer.
        wire_size = frame.wire_size()
        self.endpoint.send_datagram(
            peer, (self.epoch, frame), wire_size + TRANSPORT_HEADER_BYTES
        )
        self.frames_sent += 1
        self.bytes_sent += wire_size
        return wire_size

    def _ship(self, peer: str, frame, rider: Optional[InterestFrame] = None) -> int:
        """One datagram: ``frame``, and ``rider`` behind it under the
        same transport header (no tail probe: repair and interest
        traffic)."""
        wire_size = frame.wire_size()
        if rider is None:
            body = (self.epoch, frame)
        else:
            wire_size += rider.wire_size()
            body = (self.epoch, frame, rider)
        self.endpoint.send_datagram(
            peer, body, wire_size + TRANSPORT_HEADER_BYTES
        )
        self.frames_sent += 1
        self.bytes_sent += wire_size
        return wire_size

    def broadcast_frame(self, frame) -> None:
        """Ship one frame to every peer."""
        for peer in self._peers:
            self.send_frame(peer, frame)

    def resend_state(self, peer: str) -> None:
        """Re-send this node's full engine state to ``peer`` — or, when
        there is none to send, a bare heartbeat.  A node that has ever
        narrowed its interest restates it in the same datagram."""
        frames = self.full_state(peer)
        if not frames:
            frames = (
                ControlFrame(
                    node_index=self.local_index,
                    origin_index=self.local_index,
                    entries={},
                ),
            )
        rider = self._interest_frame
        for frame in frames:
            self._ship(peer, frame, rider)
            rider = None

    def _probe_tick(self) -> None:
        self._probe_timer = None
        if self._closed:
            return
        due = self._tail_at + TAIL_PROBE_S
        if self.sim.now < due:
            # Frames went out since this timer was armed: look again once
            # the newest of them has been the last for a full delay.
            self._probe_timer = self.sim.call_at(due, self._probe_tick)
            return
        self.tail_probes += 1
        for peer in self._tail_peers:
            self.resend_state(peer)

    def _heartbeat_tick(self) -> None:
        self._heartbeat_timer = None
        if self._closed:
            return
        if self._interest_fn is not None:
            # A narrowing lands here: it rides the heartbeats below.
            current = self._current_interest()
            if current != self.interest:
                self._state_interest(current)
        for peer in self._peers:
            self.resend_state(peer)
        self._heartbeat_timer = self.sim.call_later(
            self.heartbeat_interval, self._heartbeat_tick
        )

    # -- interest -------------------------------------------------------------------
    def announce_interest(self, narrowing: bool = False) -> None:
        """The engine's observations may have changed: ask it, and if it
        now observes an origin this node had not claimed — a *widening* —
        tell every peer at once.  Each answers with its full state
        (:meth:`resend_state`): monotone reports never repeat old values,
        so what the new observer missed only a re-send carries.

        A *narrowing* (``narrowing=True`` forces one out: the start-up
        statement) otherwise waits for the next heartbeat, whose datagram
        restates the interest of every node that ever narrowed.  So the
        protocol fails safe.  A peer that has said nothing wants
        everything; a lost or overtaken statement (they are versioned)
        leaves the peer with an older, *wider* idea of this node or is
        corrected within one heartbeat; a restarted node is served
        everything until it speaks again (its :class:`ResumeFrame` makes
        peers forget its previous life's version).  Interest only decides
        who gets the live stream — heartbeats carry every origin's rows
        to every peer regardless.
        """
        if self._closed:
            return
        current = self._current_interest()
        claimed = self.interest
        if current == claimed or (current <= claimed and not narrowing):
            return
        frame = self._state_interest(current)
        for peer in self._peers:
            self._ship(peer, frame)
        self.interest_announcements += len(self._peers)

    def _current_interest(self) -> FrozenSet[str]:
        return frozenset(self._interest_fn())

    def _state_interest(self, interest: FrozenSet[str]) -> InterestFrame:
        """Make ``interest`` this node's claim: the next version."""
        self.interest = interest
        version = self._interest_frame.version + 1 if self._interest_frame else 1
        node_index = self.config.node_index
        self._interest_frame = InterestFrame(
            self.local_index, version, [node_index(name) for name in interest]
        )
        return self._interest_frame

    def _on_interest(self, peer: str, frame: InterestFrame) -> None:
        if frame.version <= self._peer_versions.get(peer, 0):
            return  # a duplicate, or overtaken by a newer statement
        self._peer_versions[peer] = frame.version
        names = self.config.node_names
        wanted = frozenset(names[index] for index in frame.origins)
        before = self._peer_interest.get(peer, self._all_origins)
        if wanted == before:
            return  # a heartbeat restating what is known
        self._peer_interest[peer] = wanted
        self._rebuild_observers()
        if not wanted <= before:
            self.resend_state(peer)  # widened: see announce_interest

    def _rebuild_observers(self) -> None:
        everything = self._all_origins
        interests = [
            (peer, self._peer_interest.get(peer, everything))
            for peer in self._peers
        ]
        self.observers = {
            origin: [peer for peer, wanted in interests if origin in wanted]
            for origin in self.config.node_names
        }

    def close(self) -> None:
        """Stop timers (the node is shutting down)."""
        self._closed = True
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None
        if self._probe_timer is not None:
            self._probe_timer.cancel()
            self._probe_timer = None

    # -- crash-restart catch-up -----------------------------------------------------
    def send_resume(self, have: Dict[int, int]) -> None:
        """Broadcast a catch-up request: "I restarted; here is the highest
        sequence I hold per origin — replay what I am missing".  A request
        is not state — nothing supersedes a lost one — so it alone travels
        a reliable channel."""
        frame = ResumeFrame(node_index=self.local_index, have=have)
        wire_size = frame.wire_size()
        for peer in self._peers:
            self.endpoint.channel(peer, CONTROL_CHANNEL).send(
                SyntheticPayload(wire_size), meta=(self.epoch, frame)
            )
        self.frames_sent += len(self._peers)
        self.bytes_sent += wire_size * len(self._peers)

    # -- inbound --------------------------------------------------------------------
    def _on_control(self, _carried_by, body) -> None:
        """One inbound ``(epoch, frame[, rider])``, off a datagram or the
        resume channel, from ``_carried_by`` — unused: the frame names its
        sender."""
        if self._closed:
            return
        frame_epoch, frame = body[0], body[1]
        if frame_epoch != self.epoch:
            # Epoch fence: row indices in this report belong to a
            # different owner set — applying them would corrupt the
            # ACK tables.  Count and drop.
            self.stale_epoch_frames += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    self._trace_node,
                    "control.epoch_fenced",
                    frame_epoch=frame_epoch,
                    local_epoch=self.epoch,
                )
            return
        self.frames_received += 1
        peer = self.config.node_names[frame.node_index]
        self.on_heard(peer)
        if len(body) > 2:
            self._on_interest(peer, body[2])
        kind = type(frame)
        if kind is ControlFrame:
            if frame.entries:
                self.on_frame(peer, frame)
            # else a bare heartbeat: on_heard was all it had to say
        elif kind is ResumeFrame:
            if self.tracer.enabled:
                self.tracer.emit(self._trace_node, "control.resume", peer=peer)
            # A new life: whatever its last one claimed no longer counts.
            self._peer_versions.pop(peer, None)
            if self._peer_interest.pop(peer, None) is not None:
                self._rebuild_observers()
            self.on_resume(peer, frame.have)
        elif kind is InterestFrame:
            self._on_interest(peer, frame)
        else:
            self.on_frame(peer, frame)
