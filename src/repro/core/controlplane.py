"""The control plane: the shared carrier and the ACK-table streamer.

Section III-A: control information is held in the message ACK recorder and
updated on every report; the control plane streams reports "aggressively as
long as data or receive buffering capacity is available", and monotonicity
lets a batch of actions be reported with a single upcall — "the upcall for
Y implies the stability of messages prior to Y".

Since the strategy redesign (``docs/strategies.md``) this module is split
in two layers:

- :class:`ControlChannelSet` — the strategy-agnostic *carrier*: state
  frames as unreliable datagrams, loss repair by re-sending state,
  epoch fencing, liveness heartbeats, resume broadcasting, and
  frame/byte accounting.  Every stabilization engine ships its protocol
  frames through one of these; frames the carrier does not recognise are
  routed to the owning strategy's ``on_frame`` callback.
- :class:`ControlPlane` — the ACK-table engine's streamer on top of the
  carrier: it batches local acknowledgments (a flush at least every
  ``control_interval_s`` or after ``control_batch`` newly acknowledged
  messages) and applies incoming reports to the per-origin ACK tables,
  notifying the frontier engine through a callback.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.config import StabilizerConfig
from repro.core.dataplane import EPOCH_TAG
from repro.errors import StabilizerError
from repro.transport.endpoint import TransportEndpoint
from repro.transport.fifo import TRANSPORT_HEADER_BYTES
from repro.transport.messages import (
    ControlBatch,
    ControlFrame,
    ResumeFrame,
    SyntheticPayload,
)

CONTROL_CHANNEL = "stab.ctrl"

# (origin, updated_node_index, updated (type_id, seq) cells of that node)
TableUpdateFn = Callable[[str, int, Sequence[Tuple[int, int]]], None]
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
    traffic and receive unrecognised inbound frames via ``on_frame``;
    the carrier itself owns epoch fencing, loss repair, the liveness
    heartbeat, and the resume (crash-restart catch-up) broadcast that
    every engine shares.

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
        on_heard: Optional[HeardFn] = None,
        on_resume: Optional[ResumeFn] = None,
    ):
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.config = config
        self.on_heard = on_heard
        self.on_resume = on_resume
        # Engine upcall for frames the carrier does not itself dispatch
        # (anything that is not a resume, report, or bare heartbeat).
        self.on_frame: Optional[FrameFn] = None
        # peer -> the frames that rebuild this node's state at that peer.
        self.full_state: Optional[FullStateFn] = None
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
        self._type_names = config.type_names()

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
        frames = self.full_state(peer) if self.full_state is not None else ()
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
        reporter = frame.node_index
        if self.on_heard is not None:
            self.on_heard(self.config.node_names[reporter])
        if isinstance(frame, ResumeFrame):
            if self.tracer.enabled:
                self.tracer.emit(
                    self._trace_node,
                    "control.resume",
                    peer=self.config.node_names[reporter],
                )
            if self.on_resume is not None:
                self.on_resume(self.config.node_names[reporter], frame.have)
            return
        self._dispatch(frame)

    def _dispatch(self, frame) -> None:
        """Route a non-resume frame.  The base carrier swallows bare
        heartbeats (empty report frames — ``on_heard`` already saw the
        sender) and hands everything else to the strategy callback."""
        if isinstance(frame, ControlFrame) and not frame.entries:
            return
        if self.on_frame is not None:
            self.on_frame(self.config.node_names[frame.node_index], frame)


class ControlPlane(ControlChannelSet):
    """The ACK-table engine's report streamer; see module docstring.

    One instance per node.  This is the machinery
    :class:`~repro.core.strategy.AckTableStrategy` wraps — application
    code should not construct it directly (use the strategy interface),
    but the constructor signature is stable for tests and tools that do.
    """

    def __init__(
        self,
        endpoint: TransportEndpoint,
        config: StabilizerConfig,
        tables,
        on_table_update: TableUpdateFn,
        on_heard: Optional[HeardFn] = None,
        on_resume: Optional[ResumeFn] = None,
    ):
        super().__init__(endpoint, config, on_heard=on_heard, on_resume=on_resume)
        self.full_state = self.full_state_frames
        self.tables = tables
        self.on_table_update = on_table_update
        # Pending local reports: origin -> {type_id -> seq}.
        self._pending: Dict[str, Dict[int, int]] = {}
        self._pending_count = 0
        self._flush_timer = None
        # The ack-coalescing cadence honours the data plane's frame clock:
        # never flush faster than WAN frames are cut.
        self._flush_interval_s = config.control_flush_interval_s()
        self.reports_sent = 0
        self.reports_coalesced = 0

    # -- local acknowledgments ------------------------------------------------------
    def note_local_ack(self, origin: str, type_id: int, seq: int) -> None:
        """Record that this node acknowledges ``origin``'s ``seq`` at level
        ``type_id``; the report is batched for transmission.

        The local ACK table is updated immediately, so predicates at this
        node observe the acknowledgment without network delay.
        """
        table = self.tables.get(origin)
        if table is None:
            raise StabilizerError(f"unknown origin stream {origin!r}")
        if not table.update(self.local_index, type_id, seq):
            return  # stale: monotonic overwrite means nothing to report
        if self.tracer.enabled and self.tracer.sampled(origin, seq):
            names = self._type_names
            self.tracer.emit(
                self._trace_node,
                "ack.local",
                origin=origin,
                type=names[type_id] if type_id < len(names) else type_id,
                seq=seq,
            )
        self.on_table_update(origin, self.local_index, ((type_id, seq),))
        pending = self._pending.setdefault(origin, {})
        if type_id not in pending:
            # Count distinct pending (origin, type) cells: re-acking the
            # same cell before a flush overwrites in place and must not
            # push the batch counter toward an early flush.
            self._pending_count += 1
        pending[type_id] = seq
        if self._pending_count >= self.config.control_batch:
            self.flush()
        elif self._flush_timer is None:
            self._flush_timer = self.sim.call_later(
                self._flush_interval_s, self._flush_tick
            )

    def flush(self) -> None:
        """Transmit every pending report now — one coalesced transport
        frame per peer, however many origin streams the flush covers."""
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        self._pending_count = 0
        tracing = self.tracer.enabled
        per_peer: Dict[str, list] = {}
        for origin, entries in pending.items():
            frame = ControlFrame(
                node_index=self.local_index,
                origin_index=self.config.node_index(origin),
                entries=entries,
            )
            for peer in self._targets(origin):
                per_peer.setdefault(peer, []).append(frame)
        for peer, frames in per_peer.items():
            if len(frames) == 1:
                outgoing = frames[0]
            else:
                outgoing = ControlBatch(self.local_index, frames)
                self.reports_coalesced += len(frames)
            self.send_frame(peer, outgoing)
            self.reports_sent += len(frames)
            if tracing:
                # heads = the ack watermarks this flush carries, as
                # [origin, type, seq] triples — the trace context that
                # lets span reconstruction follow one send's ACK from the
                # acking peer back to its origin.
                names = self._type_names
                self.tracer.emit(
                    self._trace_node,
                    "control.send",
                    peer=peer,
                    origins=len(frames),
                    cells=sum(len(f.entries) for f in frames),
                    heads=[
                        [
                            self.config.node_names[f.origin_index],
                            names[t] if t < len(names) else t,
                            s,
                        ]
                        for f in frames
                        for t, s in f.entries.items()
                    ],
                )

    def _targets(self, origin: str):
        if self.config.control_fanout == "origin":
            if origin == self.config.local:
                return []  # nobody to tell: we are the origin
            return [origin]
        return self._peers

    def _flush_tick(self) -> None:
        self._flush_timer = None
        self.flush()

    def close(self) -> None:
        super().close()
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None

    # -- loss repair and crash-restart catch-up ---------------------------------------
    def full_state_frames(self, peer: str) -> list:
        """This node's full acknowledgment rows as one frame for ``peer``,
        so a peer that lost a report — or restarted and lost them all —
        rebuilds its view of our column without waiting for organic
        re-acks (which, being monotonic, would never repeat old values).
        A cell whose report is still batched is left to that report —
        repair must not pre-empt the flush cadence."""
        frames = []
        for origin, table in self.tables.items():
            if peer not in self._targets(origin):
                continue
            batched = self._pending.get(origin, ())
            entries = {
                type_id: seq
                for type_id, seq in enumerate(table.row(self.local_index))
                if seq > 0 and type_id not in batched
            }
            if entries:
                frames.append(
                    ControlFrame(
                        node_index=self.local_index,
                        origin_index=self.config.node_index(origin),
                        entries=entries,
                    )
                )
        if len(frames) > 1:
            return [ControlBatch(self.local_index, frames)]
        return frames

    # -- incoming reports --------------------------------------------------------------
    def _dispatch(self, frame) -> None:
        if isinstance(frame, ControlBatch):
            for report in frame.frames:
                self._apply_report(report)
            return
        if isinstance(frame, ControlFrame):
            self._apply_report(frame)
            return
        super()._dispatch(frame)

    def _apply_report(self, frame: ControlFrame) -> None:
        reporter = frame.node_index
        origin = self.config.node_names[frame.origin_index]
        if self.tracer.enabled:
            names = self._type_names
            self.tracer.emit(
                self._trace_node,
                "control.receive",
                peer=self.config.node_names[reporter],
                origin=origin,
                cells=len(frame.entries),
                heads=[
                    [names[t] if t < len(names) else t, s]
                    for t, s in frame.entries.items()
                ],
            )
        table = self.tables.get(origin)
        if table is None:
            raise StabilizerError(f"control report for unknown origin {origin!r}")
        # One batched table update and one frontier pass per frame — the
        # advanced (type_id, seq) cells let the engine use its reverse
        # dependency index instead of rescanning every predicate.
        advanced = table.update_many(reporter, frame.entries)
        if advanced:
            self.on_table_update(origin, reporter, advanced)
