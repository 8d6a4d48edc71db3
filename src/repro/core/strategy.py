"""Pluggable stabilization engines: the :class:`StabilizationStrategy` API.

The paper's ACK-table streaming (Sections III-A/III-C) is one point in a
design space of stabilization protocols.  This module extracts the
control-plane lifecycle behind one interface so a deployment — or a
single shard of one — can choose its engine:

- :class:`AckTableStrategy` (default, ``"acktable"``): the paper's
  protocol.  Every node streams monotone per-``(origin, type)`` ACK
  reports to the peers that observe that origin, giving cell-precise
  frontiers at a control fan-out that follows demand — O(n²) only where
  every site watches every stream.
- :class:`~repro.core.strategy_sequencer.SequencerStrategy`
  (``"sequencer"``): deferred-update stabilization in the style of
  Gunawardhana, Bravo & Rodrigues — grant floors funnel to one sequencer
  node which broadcasts a single stable counter per (origin, type).

Every engine populates the same evaluation substrate — the per-origin
:class:`~repro.core.acks.AckTable` matrix read by the
:class:`~repro.core.frontier.FrontierEngine` — so predicates, waiters,
monitors, snapshots, and send-buffer reclamation work identically under
both.  They differ in the *protocol that fills the cells*: the
ACK-table engine advances individual cells as reports arrive, while the
sequencer engine advances **all rows at once** when its global
stability rule fires (per-node cell granularity is collapsed; see
``docs/strategies.md`` for the expressiveness trade).

Both have one shape.  The base class owns what they share: the
tables, the composed :class:`~repro.core.controlplane.ControlChannelSet`
carrier, the local-grant path (:meth:`StabilizationStrategy.grant_local`,
and an arrival's ``received`` grant inline in ``on_remote_deliver``)
and the one report batcher (a flush at least every
``control_interval_s`` or after ``control_batch`` distinct newly
granted cells), which every local grant feeds.  An engine fills hooks —
``_propagate_received``, ``_ship_batch``, ``on_control_frame``,
``full_state_frames`` and the ``on_local_send`` / ``on_catchup`` /
``on_peer_received`` / ``grant_durable`` / snapshot extras — and
nothing else.

A value reaches the tables in one write, with no relay between: an
arrived frame writes the origin's row and then makes its ``received``
grant, a local send writes this node's own row, a local grant writes one
cell, an applied report writes the reporter's row, and — under the
ACK-table engine — a data-channel ACK writes the acknowledging peer's
``received`` cell of this node's own stream.  Each checks what
it is given inline (a report's indices, type ids and sequence numbers
come off the wire) and calls the frontier engine only when it observes
the origin (``origin in engine.watched``).  Only a ``received`` cell of
this node's own stream can move the delivery watermark, and only by
rising from the column's floor — the one case that rescans it.

Engine selection flows through
``StabilizerConfig(stabilization_strategy=...)``; every shard view of a
deployment runs the same engine.

Import rule (enforced by an AST lint): only this module and the engine
modules may import ``repro.core.acks`` directly — everything else
reaches ACK state through the strategy interface or the facade's
``tables`` attribute.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.core.acks import AckTable
from repro.core.controlplane import ControlChannelSet
from repro.core.config import StabilizerConfig
from repro.core.config import STRATEGY_NAMES  # noqa: F401 - re-exported
from repro.errors import StabilizerError
from repro.transport.messages import ControlBatch, ControlFrame


class StabilizationStrategy:
    """One node's stabilization engine: the protocol that turns local
    sends, deliveries, and grants into ACK-table state everywhere.

    Lifecycle (driven by the :class:`~repro.core.stabilizer.Stabilizer`
    facade, in order):

    1. ``build_tables()`` — allocate the per-origin ACK tables (the
       shared evaluation substrate).
    2. ``bind(stabilizer)`` — attach to the node: take its frontier
       engine, build the control carrier (a
       :class:`~repro.core.controlplane.ControlChannelSet` constructed
       with this engine's ``on_control_frame`` and ``full_state_frames``
       as its callbacks), take the carrier's tracer, start engine
       timers.  After this, ``carrier`` is set.
    3. Steady state: ``on_local_send`` from the facade's ``send``;
       ``on_remote_deliver`` from the data plane, once per arrived
       frame; ``grant_local`` from ``report_stability``, a restart's
       re-grants and a sharded cutover; ``grant_durable`` from the WAL's
       fsyncs;
       ``on_peer_received`` (an engine that has one) from the data
       plane, once per data-channel ACK that retires frames;
       ``on_control_frame`` from the carrier;
       ``advance_candidates()`` flushes the report batch now instead of
       waiting for the next timer.
    4. ``full_state_frames(peer)`` — the frames that rebuild this
       node's engine state at ``peer``; the carrier re-sends them to
       repair lost frames and ``on_resume_request(peer)`` to resync a
       restarted peer.  ``on_catchup()`` is this node's own restart;
       ``snapshot()`` / ``restore(state)`` ride the recovery envelope
       (which refuses cross-engine restores).
    5. ``close()`` — stop timers and the carrier; graceful shutdown and
       crash alike (no engine sends a parting frame).

    Engines must keep every table monotone (cells never regress).  The
    write paths above keep the frontier engine and the delivery
    watermark in step with what they write; an engine that advances
    cells itself does it through :meth:`_apply_stable`, which does the
    same.  The carrier loses, duplicates and reorders frames: every
    frame must carry absolute values the receiver max-merges, never a
    delta that only makes sense after its predecessor.
    """

    #: Engine id — the ``stabilization_strategy`` config value, the
    #: ``strategy.<name>.*`` stats prefix, and the snapshot strategy id.
    name = "abstract"

    def __init__(self, config: StabilizerConfig):
        self.config = config
        self.node = None  # the owning Stabilizer, set by bind()
        self.carrier: Optional[ControlChannelSet] = None
        self.tracer = None  # the carrier's, set by bind()
        self.tables: Dict[str, AckTable] = {}
        self.received_id = config.type_ids()["received"]
        # Resolved once: the grant and report paths run once per
        # acknowledgment.
        self.local_index = config.local_index
        self._index_of = {name: i for i, name in enumerate(config.node_names)}
        self._type_names = config.type_names()
        self._frontier = None  # the node's frontier engine, set by bind()
        # The report batcher: origin -> {type_id -> seq} granted locally
        # and not yet shipped.
        self._pending: Dict[str, Dict[int, int]] = {}
        self._pending_count = 0
        self._flush_timer = None
        self._flush_interval_s = config.control_interval_s

    # ------------------------------------------------------------------ lifecycle
    def build_tables(self) -> Dict[str, AckTable]:
        """Allocate the per-origin ACK tables every engine populates."""
        type_count = len(self.config.type_names())
        self.tables = {
            origin: AckTable(self.config.node_count(), type_count)
            for origin in self.config.node_names
        }
        return self.tables

    def bind(self, stabilizer) -> None:
        """Attach to the node and bring up the control carrier."""
        self.node = stabilizer
        self._frontier = stabilizer.engine
        self.carrier = ControlChannelSet(
            stabilizer.endpoint,
            stabilizer.config,
            on_frame=self.on_control_frame,
            full_state=self.full_state_frames,
            on_heard=stabilizer.detector.heard_from,
            on_resume=stabilizer._on_resume_request,
            interest=self._observed_origins,
        )
        self.tracer = self.carrier.tracer

    # ------------------------------------------------------------------ steady state
    def on_local_send(self, first: int, last: int) -> List[Tuple[int, int]]:
        """This node originated sequences ``first..last`` on its own
        stream.  The shared part is the Section III-C completeness rule:
        every stability property holds at the origin immediately (except
        ``persisted`` under durability, which waits for the WAL fsync).
        Returns the ``(type_id, last)`` cells that advanced."""
        node = self.node
        row = self.tables[self.config.local].table[self.local_index]
        if row[self.received_id] <= node._received_floor:
            # Our own received cell leaves the column's floor, which may
            # rise with it: the next rising cell rescans.
            node._received_floor = math.inf
        skip = node._persisted_skip
        cells = []
        for type_id, current in enumerate(row):
            if last > current and type_id not in skip:
                row[type_id] = last
                cells.append((type_id, last))
        # The local origin is always observed (its advances feed the
        # send→stable instruments).
        self._frontier.reevaluate(
            self.config.local, updated_node=self.local_index, updated_cells=cells
        )
        return cells

    def on_remote_deliver(
        self, origin: str, seq: int, first: Optional[int] = None
    ) -> None:
        """A remote ``origin``'s stream delivered contiguously up to
        ``seq`` at this node: apply the origin-row completeness rule,
        then record (and propagate) this node's ``received`` grant.

        Called once per arrived frame, not per message: the origin holds
        every property for what it sent — except ``persisted`` under
        durability, which only its own fsyncs may claim — and a newer
        value overwrites a prior one, so the run's last sequence is all
        the tables need.  The origin row is written in one pass, and the
        frontier engine hears of it only if it observes ``origin``.
        ``first``, the sequence the run began at, only keeps the trace
        per sequence: every sampled sequence of ``first..seq`` gets its
        ``ack.local``."""
        table = self.tables[origin]
        origin_index = self._index_of[origin]
        row = table.table[origin_index]
        skip = self.node._persisted_skip
        frontier = self._frontier
        cells = [] if origin in frontier.watched else None
        for type_id, current in enumerate(row):
            if seq > current and type_id not in skip:
                row[type_id] = seq
                if cells is not None:
                    cells.append((type_id, seq))
        if cells:
            frontier.reevaluate(
                origin, updated_node=origin_index, updated_cells=cells
            )
        self.node.detector.heard_from(origin)
        # This node's received grant: grant_local's write, less the checks
        # the data plane has already made (a remote origin, a sequence of
        # its stream).
        received = self.received_id
        local_index = self.local_index
        local_row = table.table[local_index]
        held = local_row[received]
        if seq <= held:
            return  # stale: monotonic overwrite means nothing to report
        local_row[received] = seq
        tracer = self.tracer
        if tracer.enabled:
            local = self.config.local
            for covered in range(seq if first is None else max(first, held + 1), seq + 1):
                if tracer.sampled(origin, covered):
                    tracer.emit(
                        local,
                        "ack.local",
                        origin=origin,
                        type="received",
                        seq=covered,
                    )
        if origin in frontier.watched:
            frontier.reevaluate(
                origin, updated_node=local_index, updated_cells=((received, seq),)
            )
        self._propagate_received(origin, seq, held)

    def grant_local(self, origin: str, type_id: int, seq: int) -> None:
        """This node grants ``origin``'s ``seq`` stability level
        ``type_id`` (WAL fsyncs, application reports, recovery
        re-grants, sharded cutovers; an arrival's ``received`` grant is
        the same write, inline in :meth:`on_remote_deliver`).  Writes the local row's
        cell immediately — predicates at this node see the grant without
        network delay; the frontier engine is called only if it observes
        ``origin``, and the delivery watermark is looked at only for this
        node's own stream — then queues it in the report batcher.
        Engines do not override this."""
        tables = self.tables
        if origin not in tables:
            raise StabilizerError(f"unknown origin stream {origin!r}")
        table = tables[origin]
        if not 0 <= type_id < table.type_count:
            raise StabilizerError(f"type id {type_id} out of range")
        if seq < 0:
            raise StabilizerError(f"negative sequence number: {seq}")
        local_index = self.local_index
        row = table.table[local_index]
        held = row[type_id]
        if seq <= held:
            return  # stale: monotonic overwrite means nothing to report
        row[type_id] = seq
        tracer = self.tracer
        if tracer.enabled and tracer.sampled(origin, seq):
            names = self._type_names
            tracer.emit(
                self.config.local,
                "ack.local",
                origin=origin,
                type=names[type_id] if type_id < len(names) else type_id,
                seq=seq,
            )
        frontier = self._frontier
        if origin in frontier.watched:
            frontier.reevaluate(
                origin,
                updated_node=local_index,
                updated_cells=((type_id, seq),),
            )
        if origin == self.config.local and type_id == self.received_id:
            node = self.node
            if held <= node._received_floor:
                node._rescan_received_floor()
        self._batch_report(origin, type_id, seq)

    def _propagate_received(self, origin: str, seq: int, held: int) -> None:
        """Propagation of an arrival's ``received`` grant (the cell was
        ``held`` before it): a local grant like any other, unless the
        engine learns it some other way."""
        self._batch_report(origin, self.received_id, seq)

    #: ``(peer, seq)``: ``peer``'s data channel acknowledged this node's
    #: stream up to ``seq`` — for an engine that takes the ACK as
    #: ``peer``'s ``received`` report; None for one that does not.
    on_peer_received = None

    def grant_durable(self, type_id: int, tops: Dict[str, int]) -> None:
        """A WAL group commit's fsync covers each origin of ``tops`` up
        to its sequence: grant ``persisted`` (``type_id``)."""
        for origin, seq in tops.items():
            self.grant_local(origin, type_id, seq)

    #: ``() -> origins this node observes``, for an engine that routes its
    #: frames by demand (the carrier then advertises it and keeps
    #: ``carrier.observers``); None for an engine that broadcasts.
    _observed_origins = None

    # ------------------------------------------------------------------ the report batcher
    def _batch_report(self, origin: str, type_id: int, seq: int) -> None:
        """Queue "this node grants ``origin`` up to ``seq`` at
        ``type_id``" for the next flush: after ``control_batch`` distinct
        pending cells, or ``control_interval_s`` after the first."""
        batch = self._pending
        if origin in batch:
            pending = batch[origin]
        else:
            pending = batch[origin] = {}
        if type_id not in pending:
            # Count distinct pending (origin, type) cells: re-granting the
            # same cell before a flush overwrites in place and must not
            # push the batch counter toward an early flush.
            self._pending_count += 1
        elif pending[type_id] >= seq:
            return  # the batch is state too: floors only rise
        pending[type_id] = seq
        if self._pending_count >= self.config.control_batch:
            self.advance_candidates()
        elif self._flush_timer is None:
            self._flush_timer = self.carrier.sim.call_later(
                self._flush_interval_s, self._flush_tick
            )

    def _flush_tick(self) -> None:
        self._flush_timer = None
        self.advance_candidates()

    def advance_candidates(self) -> None:
        """Push pending control state out *now* instead of waiting for
        the next timer: flush the report batch."""
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        self._pending_count = 0
        self._ship_batch(pending)

    def _ship_batch(self, pending: Dict[str, Dict[int, int]]) -> None:
        """Put one flushed batch, ``origin -> {type_id -> seq}``, on the
        wire in the engine's own frames."""
        raise NotImplementedError

    # ------------------------------------------------------------------ receiving side
    def _apply_stable(self, origin: str, entries) -> bool:
        """Bulk-apply a global stability verdict: every node is known to
        have granted ``origin``'s stream up to ``seq`` at ``type_id``, for
        each ``(type_id, seq)`` in ``entries`` — so set the whole column.

        This is how the sequencer engine feeds the shared substrate: it
        learns "stable everywhere up to N" without per-node attribution,
        so every row advances together (MIN, MAX and KTH predicates all
        fire at the same instant).  Returns True if any cell advanced;
        then the origin takes a full frontier pass and, if it is this
        node's own stream, the received floor a rescan.
        """
        table = self.tables.get(origin)
        if table is None:
            raise StabilizerError(f"unknown origin stream {origin!r}")
        advanced = False
        for type_id, seq in entries:
            for row in range(table.node_count):
                if table.update(row, type_id, seq):
                    advanced = True
        if advanced:
            self._frontier.reevaluate(origin)
            if origin == self.config.local:
                self.node._rescan_received_floor()
        return advanced

    def on_control_frame(self, peer: str, frame) -> None:
        """An engine-specific control frame arrived from ``peer``."""
        raise StabilizerError(
            f"{type(self).__name__} received unexpected control frame "
            f"{type(frame).__name__} from {peer!r}"
        )

    # ------------------------------------------------------------------ recovery
    def full_state_frames(self, peer: str) -> list:
        """The frames that rebuild this node's engine state at ``peer``
        from nothing (possibly none) — what the carrier re-sends to
        repair lost frames and to resync a restarted peer.  A cell whose
        report is still batched is left to that report: repair must not
        pre-empt the flush cadence."""
        raise NotImplementedError

    def on_resume_request(self, peer: str) -> None:
        """A restarted ``peer`` asked for catch-up: re-send whatever
        engine state it needs to rebuild its view of this node."""
        self.carrier.resend_state(peer)

    def on_catchup(self) -> None:
        """This node itself restarted (after ``restore_state``): push
        recovered engine state back into the protocol.  Default: no-op —
        peers resync us via :meth:`on_resume_request`."""

    def snapshot(self) -> dict:
        """JSON-serializable engine state for the recovery envelope.
        Tables, frontiers, and watermarks are captured by the envelope
        itself — only protocol-private state belongs here."""
        return {}

    def restore(self, state: dict) -> None:
        """Reinstate :meth:`snapshot` output (same engine only — the
        envelope refuses cross-engine restores before calling this)."""

    # ------------------------------------------------------------------ introspection
    def stats(self) -> Dict[str, float]:
        """The comparable ``strategy.*`` metric family (same keys for
        every engine) plus engine-specific ``strategy.<name>.*`` extras."""
        out = {
            "strategy.frames_sent": self.carrier.frames_sent,
            "strategy.frames_received": self.carrier.frames_received,
            "strategy.bytes_sent": self.carrier.bytes_sent,
            "strategy.tail_probes": self.carrier.tail_probes,
            "strategy.interest_announcements": self.carrier.interest_announcements,
        }
        prefix = f"strategy.{self.name}."
        for key, value in self._engine_stats().items():
            out[prefix + key] = value
        return out

    def _engine_stats(self) -> Dict[str, float]:
        return {}

    # ------------------------------------------------------------------ teardown
    def close(self) -> None:
        """Stop engine timers and the carrier.  Shutdown and crash are
        the same here: whatever was still batched is abandoned."""
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        self.carrier.close()


class AckTableStrategy(StabilizationStrategy):
    """The paper's protocol: monotone per-cell ACK reports, batched per
    origin and streamed to the peers that *observe* that origin.
    Cell-precise — per-node predicates like ``KTH_MAX`` and per-peer
    ``MAX`` react to the *first* qualifying ack.

    Fan-out follows demand.  A node observes an origin while its
    :class:`~repro.core.frontier.FrontierEngine` has a listener on it (a
    monitor, a pending waiter, a bound tracer, always its own stream) or
    its frontier was read within the last heartbeat interval; the carrier
    advertises that and :meth:`_targets` is the peers' side of it.  Where
    every node observes everything (any traced cluster) this is the
    paper's O(n²) stream; where only the sender watches its stream, each
    receiver reports to it alone.  Everyone else converges by
    anti-entropy: heartbeats carry every row to every peer, so a table
    cell at a non-observer is at most one heartbeat interval stale, a
    read there is a lower bound — and an observation, which turns the
    live stream on and is exact one round trip later.

    Where every node observes everything, zero behavior change from the
    pre-strategy tree is a tested guarantee
    (``tests/core/test_strategy_equivalence.py``); what a node that
    observes less may and may not see is
    ``tests/core/test_interest_contract.py``."""

    name = "acktable"

    def __init__(self, config: StabilizerConfig):
        super().__init__(config)
        self._peer_count = len(config.remote_names())
        # origin -> when its frontier was last read here unobserved.
        self._read_at: Dict[str, float] = {}
        # origin -> (until, public): a received grant that skipped the
        # batcher (see _propagate_received) opened a window during which
        # repair sends that cell only as it stood before the window.
        self._held: Dict[str, Tuple[float, int]] = {}
        self.reports_sent = 0
        self.reports_coalesced = 0
        self.reports_withheld = 0

    def bind(self, stabilizer) -> None:
        super().bind(stabilizer)
        engine = stabilizer.engine
        engine.on_watch_change = self.carrier.announce_interest
        engine.on_unobserved_read = self._on_unobserved_read

    def _propagate_received(self, origin: str, seq: int, held: int) -> None:
        """An arrival's ``received`` grant goes to the peers observing
        ``origin`` in a report, as any grant does — unless the origin is
        the only one: it learns the cell from its data channel's ACK
        (:meth:`on_peer_received`), so nothing is batched.

        Such a grant still must not reach anyone sooner than its report
        would have: full-state repair sends the cell as it stood before
        (``held``) until one flush interval after the first grant of the
        window (see :meth:`full_state_frames`); the window expires
        lazily, with no timer."""
        targets = self.carrier.observers[origin]
        # Peers are distinct: [origin] is the one list whose ends are both
        # the origin.
        if targets and (targets[0] != origin or targets[-1] != origin):
            self._batch_report(origin, self.received_id, seq)
            return
        now = self.node.sim.now
        windows = self._held
        if origin not in windows or now >= windows[origin][0]:
            windows[origin] = (now + self._flush_interval_s, held)

    def on_peer_received(self, peer: str, seq: int) -> None:
        """``peer``'s data channel acknowledged this node's stream up to
        ``seq``: the write a ``received`` report from ``peer`` makes (see
        :meth:`on_control_frame`), from the ACK that states the same fact
        at no extra wire bytes — and, as the report was, a sign of life."""
        node = self.node
        node.detector.heard_from(peer)
        peer_index = self._index_of[peer]
        local = self.config.local
        received = self.received_id
        row = self.tables[local].table[peer_index]
        held = row[received]
        if seq <= held:
            return
        row[received] = seq
        if self.tracer.enabled:
            self.tracer.emit(local, "data.ack_receive", peer=peer, seq=seq)
        frontier = self._frontier
        if local in frontier.watched:
            frontier.reevaluate(
                local, updated_node=peer_index, updated_cells=((received, seq),)
            )
        if held <= node._received_floor:
            node._rescan_received_floor()

    def grant_durable(self, type_id: int, tops: Dict[str, int]) -> None:
        """A group commit is already a batch: its ``persisted`` grants,
        every origin it covers, ship at once in one flush instead of
        waiting a flush interval."""
        super().grant_durable(type_id, tops)
        self.advance_candidates()

    # ------------------------------------------------------------------ demand
    def _observed_origins(self):
        origins = set(self._frontier.watched)
        if self._read_at:
            held_since = self.node.sim.now - self.carrier.heartbeat_interval
            origins.update(
                origin for origin, at in self._read_at.items() if at > held_since
            )
        return origins

    def _on_unobserved_read(self, origin: str) -> None:
        """A read is an observation: it was answered from the table — a
        lower bound — and asks for the live stream from here on."""
        if origin not in self.tables:
            return
        self._read_at[origin] = self.node.sim.now
        if origin not in self.carrier.interest:
            self.carrier.announce_interest()

    def _ship_batch(self, pending: Dict[str, Dict[int, int]]) -> None:
        """One transport frame per observing peer, however many origin
        streams the flush covers.  A report's entries are the batch's own
        dict, swapped out of ``_pending`` and never written again."""
        observers = self.carrier.observers
        send_frame = self.carrier.send_frame
        tracing = self.tracer.enabled
        if len(pending) == 1:
            # The common flush, one origin: its one report goes down the
            # observer list as it is — nothing to regroup or coalesce.
            ((origin, entries),) = pending.items()
            targets = observers[origin]
            self.reports_withheld += self._peer_count - len(targets)
            if not targets:
                return
            frame = ControlFrame(self.local_index, self._index_of[origin], entries)
            for peer in targets:
                send_frame(peer, frame)
                self.reports_sent += 1
                if tracing:
                    self._trace_send(peer, (frame,))
            return
        per_peer: Dict[str, list] = {}
        for origin, entries in pending.items():
            targets = observers[origin]
            self.reports_withheld += self._peer_count - len(targets)
            if targets:
                frame = ControlFrame(self.local_index, self._index_of[origin], entries)
                for peer in targets:
                    per_peer.setdefault(peer, []).append(frame)
        for peer, frames in per_peer.items():
            if len(frames) == 1:
                outgoing = frames[0]
            else:
                outgoing = ControlBatch(self.local_index, frames)
                self.reports_coalesced += len(frames)
            send_frame(peer, outgoing)
            self.reports_sent += len(frames)
            if tracing:
                self._trace_send(peer, frames)

    def _trace_send(self, peer: str, frames) -> None:
        """The ``control.send`` event of one flush to ``peer`` (its callers
        test the flag once per flush)."""
        tracer = self.tracer
        if tracer.enabled:
            # heads = the ack watermarks this flush carries, as [origin,
            # type, seq] triples — the trace context that lets span
            # reconstruction follow one send's ACK from the acking peer
            # back to its origin.
            names = self._type_names
            tracer.emit(
                self.config.local,
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

    def full_state_frames(self, peer: str) -> list:
        """This node's full acknowledgment rows, every origin's, as one
        frame for ``peer`` — observer or not: so a peer that lost a
        report, restarted and lost them all, or has only now begun to
        observe a stream rebuilds its view of our column without waiting
        for organic re-acks (which, being monotonic, would never repeat
        old values), and so every table converges within a heartbeat.

        Repair must not pre-empt the flush cadence: a cell whose report
        is still batched is left to that report, and a ``received`` cell
        that skipped the batcher is sent as it stood before its window
        until the window closes (see :meth:`_propagate_received`)."""
        frames = []
        now = self.node.sim.now
        received = self.received_id
        for origin, table in self.tables.items():
            batched = self._pending.get(origin, ())
            entries = {
                type_id: seq
                for type_id, seq in enumerate(table.row(self.local_index))
                if seq > 0 and type_id not in batched
            }
            window = self._held.get(origin)
            if window is not None and now < window[0] and received in entries:
                if window[1] > 0:
                    entries[received] = window[1]
                else:
                    del entries[received]
            if entries:
                frames.append(
                    ControlFrame(self.local_index, self._index_of[origin], entries)
                )
        if len(frames) > 1:
            return [ControlBatch(self.local_index, frames)]
        return frames

    def on_control_frame(self, peer: str, frame) -> None:
        """Apply a report (or a batch of them): per report, one table
        write of the reporter's row and — if this node observes the
        origin — one frontier pass over the cells that rose.

        Everything in a report comes off the wire, so each is checked
        before it is used: the reporter and origin indices, each type id
        and each sequence number.  A ``received`` cell of this node's own
        stream that rose from the column's floor rescans the floor (see
        :meth:`~repro.core.stabilizer.Stabilizer._rescan_received_floor`);
        any other update cannot move it."""
        kind = type(frame)
        if kind is ControlFrame:
            reports = (frame,)
        elif kind is ControlBatch:
            reports = frame.frames
        else:
            super().on_control_frame(peer, frame)
            return
        names = self.config.node_names
        node_count = len(names)
        received = self.received_id
        local_index = self.local_index
        frontier = self._frontier
        tracing = self.tracer.enabled
        for report in reports:
            reporter = report.node_index
            origin_index = report.origin_index
            if not 0 <= reporter < node_count:
                raise StabilizerError(f"node index {reporter} out of range")
            if not 0 <= origin_index < node_count:
                raise StabilizerError(
                    f"control report for origin index {origin_index} out of range"
                )
            origin = names[origin_index]
            entries = report.entries
            if tracing:
                type_names = self._type_names
                self.tracer.emit(
                    self.config.local,
                    "control.receive",
                    peer=names[reporter],
                    origin=origin,
                    cells=len(entries),
                    heads=[
                        [type_names[t] if t < len(type_names) else t, s]
                        for t, s in entries.items()
                    ],
                )
            table = self.tables[origin]
            type_count = table.type_count
            row = table.table[reporter]
            # The advanced (type_id, seq) cells let the frontier engine use
            # its reverse dependency index instead of rescanning every
            # predicate; nobody needs them for an origin it does not watch.
            cells = [] if origin in frontier.watched else None
            rose_from = None  # the received cell's value before it rose
            for type_id, seq in entries.items():
                if not 0 <= type_id < type_count:
                    raise StabilizerError(f"type id {type_id} out of range")
                if seq < 0:
                    raise StabilizerError(f"negative sequence number: {seq}")
                held = row[type_id]
                if seq > held:
                    row[type_id] = seq
                    if type_id == received:
                        rose_from = held
                    if cells is not None:
                        cells.append((type_id, seq))
            if cells:
                frontier.reevaluate(origin, updated_node=reporter, updated_cells=cells)
            if rose_from is not None and origin_index == local_index:
                node = self.node
                if rose_from <= node._received_floor:
                    node._rescan_received_floor()

    def _engine_stats(self) -> Dict[str, float]:
        return {
            "reports_sent": self.reports_sent,
            "reports_coalesced": self.reports_coalesced,
            "reports_withheld": self.reports_withheld,
        }


def build_strategy(config: StabilizerConfig) -> StabilizationStrategy:
    """Instantiate the engine ``config.stabilization_strategy`` names
    (one of :data:`STRATEGY_NAMES` — the config validated that)."""
    from repro.core.strategy_sequencer import SequencerStrategy

    engines = (AckTableStrategy, SequencerStrategy)
    by_name = {engine.name: engine for engine in engines}
    return by_name[config.stabilization_strategy](config)
