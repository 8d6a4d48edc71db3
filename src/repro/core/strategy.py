"""Pluggable stabilization engines: the :class:`StabilizationStrategy` API.

The paper's ACK-table streaming (Sections III-A/III-C) is one point in a
design space of stabilization protocols.  This module extracts the
control-plane lifecycle behind one interface so a deployment — or a
single shard of one — can choose its engine:

- :class:`AckTableStrategy` (default, ``"acktable"``): the paper's
  protocol.  Every node streams monotone per-``(origin, type)`` ACK
  reports to its peers (``controlplane.py`` + ``acks.py``), giving
  cell-precise frontiers at O(n²) control fan-out.
- :class:`~repro.core.strategy_sequencer.SequencerStrategy`
  (``"sequencer"``): deferred-update stabilization in the style of
  Gunawardhana, Bravo & Rodrigues — grant floors funnel to one sequencer
  node which broadcasts a single stable counter per (origin, type).
- :class:`~repro.core.strategy_hybrid.HybridClockStrategy`
  (``"hybrid_clock"``): Okapi-style hybrid logical/physical clock stamps
  with periodic fixed-size stable-time vectors.

Every engine populates the same evaluation substrate — the per-origin
:class:`~repro.core.acks.AckTable` matrix read by the
:class:`~repro.core.frontier.FrontierEngine` — so predicates, waiters,
monitors, snapshots, and send-buffer reclamation work identically under
all of them.  They differ in the *protocol that fills the cells*: the
ACK-table engine advances individual cells as reports arrive, while the
sequencer and hybrid-clock engines advance **all rows at once** when
their global stability rule fires (per-node cell granularity is
collapsed; see ``docs/strategies.md`` for the expressiveness trade).

Engine selection flows through
``StabilizerConfig(stabilization_strategy=...)``, with a per-shard
override (``shard_strategies``) resolved by
:meth:`~repro.core.config.StabilizerConfig.shard_view`.

Import rule (enforced by an AST lint): only this module and the engine
modules may import ``repro.core.acks`` directly — everything else
reaches ACK state through the strategy interface or the facade's
``tables`` attribute.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.acks import AckTable
from repro.core.controlplane import ControlChannelSet, ControlPlane
from repro.core.config import StabilizerConfig
from repro.errors import ConfigError, StabilizerError

#: Recognised engine names, in documentation order.
STRATEGY_NAMES = ("acktable", "sequencer", "hybrid_clock")


class StabilizationStrategy:
    """One node's stabilization engine: the protocol that turns local
    sends, deliveries, and grants into ACK-table state everywhere.

    Lifecycle (driven by the :class:`~repro.core.stabilizer.Stabilizer`
    facade, in order):

    1. ``build_tables()`` — allocate the per-origin ACK tables (the
       shared evaluation substrate).
    2. ``bind(stabilizer)`` — attach to the node: build the control
       carrier (a :class:`~repro.core.controlplane.ControlChannelSet`),
       start engine timers.  After this, ``carrier`` is set.
    3. ``bind_obs(tracer, registry)`` — observability binding.
    4. Steady state: ``on_local_send`` / ``on_remote_deliver`` /
       ``grant_local`` from the facade; ``on_control_frame`` from the
       carrier; ``advance_candidates()`` forces pending control work out
       now (flush/broadcast) instead of waiting for the next timer.
    5. ``full_state_frames(peer)`` — the frames that rebuild this
       node's engine state at ``peer``; the carrier re-sends them to
       repair lost frames and ``on_resume_request(peer)`` to resync a
       restarted peer.  ``on_catchup()`` is this node's own restart;
       ``snapshot()`` / ``restore(state)`` ride the recovery envelope
       (which refuses cross-engine restores).
    6. ``close()`` / ``crash()`` — stop timers (graceful or not).

    Engines must keep every table monotone (cells never regress) and
    must call ``stabilizer._on_table_update`` after advancing cells so
    the frontier engine re-evaluates and reclamation advances.  The
    carrier loses, duplicates and reorders frames: every frame must
    carry absolute values the receiver max-merges, never a delta that
    only makes sense after its predecessor.
    """

    #: Engine id — the ``stabilization_strategy`` config value, the
    #: ``strategy.<name>.*`` stats prefix, and the snapshot strategy id.
    name = "abstract"

    def __init__(self, config: StabilizerConfig):
        self.config = config
        self.node = None  # the owning Stabilizer, set by bind()
        self.carrier: Optional[ControlChannelSet] = None
        self.tables: Dict[str, AckTable] = {}
        self.received_id = config.type_ids()["received"]
        self.tracer = None
        self.registry = None

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
        self._bind_control(stabilizer)
        self._start(stabilizer)

    def _bind_control(self, stabilizer) -> None:
        """Build the carrier.  The default is the generic channel set
        with engine frames routed to :meth:`on_control_frame`."""
        self.carrier = ControlChannelSet(
            stabilizer.endpoint,
            stabilizer.config,
            on_heard=stabilizer.detector.heard_from,
            on_resume=stabilizer._on_resume_request,
        )
        self.carrier.on_frame = self.on_control_frame
        self.carrier.full_state = self.full_state_frames

    def _start(self, stabilizer) -> None:
        """Start engine timers (report batching, clock ticks, ...)."""

    def bind_obs(self, tracer, registry) -> None:
        """Observability binding: called once, after :meth:`bind`."""
        self.tracer = tracer
        self.registry = registry

    # ------------------------------------------------------------------ steady state
    def on_local_send(self, first: int, last: int) -> None:
        """This node originated sequences ``first..last`` on its own
        stream.  The shared part is the Section III-C completeness rule:
        every stability property holds at the origin immediately (except
        ``persisted`` under durability, which waits for the WAL fsync).
        """
        table = self.tables[self.config.local]
        advanced = table.set_all_types(
            self.config.local_index, last, skip=self.node._persisted_skip
        )
        self.node.engine.reevaluate(
            self.config.local,
            updated_node=self.config.local_index,
            updated_cells=[(type_id, last) for type_id in advanced],
        )
        return advanced

    def on_remote_deliver(self, origin: str, seq: int) -> None:
        """A remote ``origin``'s stream delivered contiguously up to
        ``seq`` at this node: apply the origin-row completeness rule,
        then record (and propagate) this node's ``received`` grant."""
        table = self.tables[origin]
        origin_index = self.config.node_index(origin)
        advanced = table.set_all_types(
            origin_index, seq, skip=self.node._persisted_skip
        )
        if advanced:
            self.node.engine.reevaluate(
                origin,
                updated_node=origin_index,
                updated_cells=[(type_id, seq) for type_id in advanced],
            )
        self.node.detector.heard_from(origin)
        self.grant_local(origin, self.received_id, seq)

    def grant_local(self, origin: str, type_id: int, seq: int) -> None:
        """This node grants ``origin``'s ``seq`` stability level
        ``type_id`` (delivery acks, WAL fsyncs, application reports).
        Updates the local row immediately — predicates at this node see
        the grant without network delay — then hands it to the engine's
        propagation protocol."""
        table = self.tables.get(origin)
        if table is None:
            raise StabilizerError(f"unknown origin stream {origin!r}")
        if not table.update(self.config.local_index, type_id, seq):
            return  # stale: monotonic overwrite means nothing to report
        self.node._on_table_update(
            origin, self.config.local_index, ((type_id, seq),)
        )
        self._propagate_grant(origin, type_id, seq)

    def _propagate_grant(self, origin: str, type_id: int, seq: int) -> None:
        """Engine-specific propagation of a local grant."""
        raise NotImplementedError

    def _apply_stable(self, origin: str, entries) -> bool:
        """Bulk-apply a global stability verdict: every node is known to
        have granted ``origin``'s stream up to ``seq`` at ``type_id``, for
        each ``(type_id, seq)`` in ``entries`` — so set the whole column.

        This is how the sequencer and hybrid-clock engines feed the
        shared substrate: they learn "stable everywhere up to N" without
        per-node attribution, so every row advances together (MIN, MAX
        and KTH predicates all fire at the same instant).  Returns True
        if any cell advanced; the facade then runs a full frontier pass.
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
            self.node._on_table_update(origin, None, None)
        return advanced

    def on_type_registered(self, type_id: int) -> None:
        """A runtime ``register_stability_type`` added a column (the
        facade already widened every table)."""

    def on_control_frame(self, peer: str, frame) -> None:
        """An engine-specific control frame arrived from ``peer``."""
        raise StabilizerError(
            f"{type(self).__name__} received unexpected control frame "
            f"{type(frame).__name__} from {peer!r}"
        )

    def advance_candidates(self) -> None:
        """Push pending control state out *now* (flush report batches,
        broadcast the clock, ...) instead of waiting for the next timer."""
        raise NotImplementedError

    # ------------------------------------------------------------------ recovery
    def full_state_frames(self, peer: str) -> list:
        """The frames that rebuild this node's engine state at ``peer``
        from nothing (possibly none) — what the carrier re-sends to
        repair lost frames and to resync a restarted peer."""
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
        }
        prefix = f"strategy.{self.name}."
        for key, value in self._engine_stats().items():
            out[prefix + key] = value
        return out

    def _engine_stats(self) -> Dict[str, float]:
        return {}

    # ------------------------------------------------------------------ teardown
    def close(self) -> None:
        """Graceful shutdown: stop engine timers and the carrier."""
        self._stop()
        self.carrier.close()

    def crash(self) -> None:
        """Crash teardown — no parting flush, no goodbyes."""
        self._stop()
        self.carrier.close()

    def _stop(self) -> None:
        """Cancel engine timers."""


class AckTableStrategy(StabilizationStrategy):
    """The paper's protocol, verbatim: the pre-redesign ``ControlPlane``
    streaming monotone per-cell ACK reports to every peer (or to the
    origin only, under ``control_fanout="origin"``).  Cell-precise —
    per-node predicates like ``KTH_MAX`` and per-peer ``MAX`` react to
    the *first* qualifying ack, at O(n²) steady-state control traffic.

    Zero behavior change from the pre-strategy tree is a tested
    guarantee (``tests/core/test_strategy_equivalence.py``)."""

    name = "acktable"

    def _bind_control(self, stabilizer) -> None:
        self.plane = ControlPlane(
            stabilizer.endpoint,
            stabilizer.config,
            self.tables,
            on_table_update=stabilizer._on_table_update,
            on_heard=stabilizer.detector.heard_from,
            on_resume=stabilizer._on_resume_request,
        )
        self.carrier = self.plane

    def grant_local(self, origin: str, type_id: int, seq: int) -> None:
        # The plane owns the whole grant path (table update, trace,
        # frontier upcall, report batching) — byte-identical to the
        # pre-redesign note_local_ack.
        self.plane.note_local_ack(origin, type_id, seq)

    def _propagate_grant(self, origin: str, type_id: int, seq: int) -> None:
        raise AssertionError("unreachable: grant_local is overridden")

    def advance_candidates(self) -> None:
        self.plane.flush()

    def full_state_frames(self, peer: str) -> list:
        return self.plane.full_state_frames(peer)

    def _engine_stats(self) -> Dict[str, float]:
        return {
            "reports_sent": self.plane.reports_sent,
            "reports_coalesced": self.plane.reports_coalesced,
        }


def build_strategy(config: StabilizerConfig) -> StabilizationStrategy:
    """Instantiate the engine ``config.stabilization_strategy`` names."""
    name = getattr(config, "stabilization_strategy", "acktable")
    if name == "acktable":
        return AckTableStrategy(config)
    if name == "sequencer":
        from repro.core.strategy_sequencer import SequencerStrategy

        return SequencerStrategy(config)
    if name == "hybrid_clock":
        from repro.core.strategy_hybrid import HybridClockStrategy

        return HybridClockStrategy(config)
    raise ConfigError(
        f"unknown stabilization strategy {name!r}; "
        f"known: {', '.join(STRATEGY_NAMES)}"
    )
