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
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.core.config import StabilizerConfig
from repro.core.dataplane import EPOCH_TAG
from repro.transport.endpoint import TransportEndpoint
from repro.transport.fifo import TRANSPORT_HEADER_BYTES
from repro.transport.messages import ControlFrame, ResumeFrame, SyntheticPayload

CONTROL_CHANNEL = "stab.ctrl"

HeardFn = Callable[[str], None]
# (peer name, {origin_index -> highest received seq} the peer already has)
ResumeFn = Callable[[str, Dict[int, int]], None]
# (peer name, engine-specific control frame)
FrameFn = Callable[[str, object], None]
# peer name -> the frames that rebuild this node's engine state there
FullStateFn = Callable[[str], Sequence[object]]


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
    ``transport_min_rto_s`` (the tail probe), and to every peer on every
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
        # Epoch fencing (see dataplane.EPOCH_TAG): control reports carry
        # table row indices, which only mean anything within one epoch's
        # owner set — a stale report must be fenced, not applied.
        self.epoch = config.shard_epoch
        self.stale_epoch_frames = 0
        self._peers = list(config.remote_names())
        endpoint.on_datagram = self._on_control
        endpoint.accept(
            CONTROL_CHANNEL, self._on_control, **config.channel_kwargs()
        )
        self.frames_sent = 0
        self.frames_received = 0
        # Total control-frame wire bytes offered to the transport — the
        # fan-out cost a shard's owner-set routing is meant to cut.
        self.bytes_sent = 0
        self.tail_probes = 0
        # Tail probe: the last frame to a peer has no successor to
        # supersede it, so its loss must be repaired by a re-send.
        self._probe_delay = config.transport_min_rto_s
        self._probe_timer = None
        self._tail_at = 0.0
        self._tail_peers: list = []
        # Heartbeats: proof of life for the failure detector, and the
        # anti-entropy round that repairs what the tail probe cannot (a
        # quiet origin's cell while another stream keeps the carrier busy).
        self._heartbeat_interval = config.failure_timeout_s / 3.0
        self._heartbeat_timer = self.sim.call_later(
            self._heartbeat_interval, self._heartbeat_tick
        )
        self._closed = False
        # Observability (installed on the endpoint before construction).
        self.tracer = endpoint.tracer
        self._trace_node = config.local

    # -- outbound -------------------------------------------------------------------
    def send_frame(self, peer: str, frame) -> int:
        """Ship one epoch-tagged state frame to ``peer``; returns its
        wire size (already added to the byte counters)."""
        now = self.sim.now
        if now != self._tail_at:
            self._tail_at = now
            self._tail_peers = []
        self._tail_peers.append(peer)
        if self._probe_timer is None:
            self._probe_timer = self.sim.call_later(
                self._probe_delay, self._probe_tick
            )
        return self._ship(peer, frame)

    def _ship(self, peer: str, frame) -> int:
        wire_size = frame.wire_size()
        self.endpoint.send_datagram(
            peer,
            (EPOCH_TAG, self.epoch, frame),
            wire_size + TRANSPORT_HEADER_BYTES,
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
        there is none to send, a bare heartbeat."""
        frames = self.full_state(peer)
        if not frames:
            frames = (
                ControlFrame(
                    node_index=self.local_index,
                    origin_index=self.local_index,
                    entries={},
                ),
            )
        for frame in frames:
            self._ship(peer, frame)

    def _probe_tick(self) -> None:
        self._probe_timer = None
        if self._closed:
            return
        due = self._tail_at + self._probe_delay
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
        for peer in self._peers:
            self.resend_state(peer)
        self._heartbeat_timer = self.sim.call_later(
            self._heartbeat_interval, self._heartbeat_tick
        )

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
                SyntheticPayload(wire_size), meta=(EPOCH_TAG, self.epoch, frame)
            )
        self.frames_sent += len(self._peers)
        self.bytes_sent += wire_size * len(self._peers)

    # -- inbound --------------------------------------------------------------------
    def _on_control(self, _carried_by, tagged) -> None:
        """One inbound frame, off a datagram (called with its source) or
        the resume channel (called with its payload) — unused either
        way: the frame names its sender."""
        if self._closed:
            return
        _tag, frame_epoch, frame = tagged
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
        if isinstance(frame, ResumeFrame):
            if self.tracer.enabled:
                self.tracer.emit(self._trace_node, "control.resume", peer=peer)
            self.on_resume(peer, frame.have)
            return
        if isinstance(frame, ControlFrame) and not frame.entries:
            return  # bare heartbeat: on_heard was all it had to say
        self.on_frame(peer, frame)
