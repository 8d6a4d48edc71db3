"""The Stabilizer facade: the library's public interface (Section III-D).

One :class:`Stabilizer` instance runs at each WAN node.  It owns the data
plane (its own outgoing stream plus every incoming stream), the control
plane, the per-origin ACK tables, the frontier engine and the failure
detector, and exposes the paper's API:

- ``send(payload)`` — originate a message on this node's stream;
- ``waitfor(seq, predicate_key)`` — an event that triggers once the
  stability frontier of the predicate covers ``seq``;
- ``monitor_stability_frontier(key, fn)`` — frontier-advance callbacks;
- ``register_predicate(key, source)`` / ``change_predicate(key[, source])``;
- ``report_stability(type_name, seq, origin)`` — application-defined
  stability levels (``persisted``, ``verified``, ...);
- ``get_stability_frontier(key, origin)`` — read the current frontier.

The paper notes the interfaces "only can be called by the system designer
at the code level with proper logic" — they are not concurrency-hardened
client APIs, and neither are ours.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.config import StabilizerConfig
from repro.core.dataplane import DataPlane
from repro.core.degradation import DegradationPolicy
from repro.core.durability import DurabilityManager
from repro.core.frontier import FrontierEngine
from repro.core.membership import FailureDetector
from repro.core.strategy import build_strategy
from repro.errors import StabilizerError
from repro.net.topology import Network
from repro.obs import MetricsRegistry, StabilityInstruments
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.events import Event
from repro.transport.endpoint import TransportEndpoint
from repro.transport.messages import Payload

DeliveryFn = Callable[[str, int, Payload, object], None]
# fn(peer, shard): a transport dead-peer report and the shard_id of the
# stack whose endpoint made it (None unsharded).
PeerDeadFn = Callable[[str, Optional[int]], None]


class Stabilizer:
    """One node's Stabilizer instance; see module docstring."""

    def __init__(
        self,
        net: Network,
        config: StabilizerConfig,
        fs=None,
        tracer: Optional[Tracer] = None,
    ):
        self.net = net
        self.sim = net.sim
        self.config = config
        self.name = config.local
        self.local_index = config.local_index
        # Shard views bind a per-shard transport port so the per-shard
        # stacks of a ShardedStabilizer coexist on one host.
        self.endpoint = TransportEndpoint(
            net, config.local, port=config.transport_port()
        )

        # Observability.  The registry is always on (plain counters and
        # callables); the tracer defaults to the shared disabled singleton
        # so every instrumented site reduces to one flag check.  It must
        # land on the endpoint *before* the planes are built — they cache
        # it from there.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if config.shard_id is not None and self.tracer is not NULL_TRACER:
            # Shard-tag every event this stack emits.
            self.tracer = self.tracer.scoped(shard=config.shard_id)
        self.endpoint.tracer = self.tracer
        self.registry = MetricsRegistry()
        self.registry.add_collector(self._collect_stats)
        self.stability = StabilityInstruments(
            self.registry, clock=self.sim.clock, node=config.local
        )
        # Critical-path attribution over the flight-recorder ring (see
        # repro.obs.critpath).  Off in stats() by default — the analysis
        # is O(ring) and some tests poll stats() in tight loops — but
        # blame() is always available, and the cache below makes
        # repeated stats() calls between new events free.
        self.blame_in_stats = False
        self._blame_cache: Optional[Dict[str, float]] = None
        self._blame_cache_key = -1
        # Optional SLO burn-rate alerter (attach_alerter).
        self.alerter = None

        self._type_ids: Dict[str, int] = config.type_ids()
        # The stabilization engine (docs/strategies.md): the protocol
        # that fills the ACK tables.  All engines share the table/
        # frontier substrate, so everything below this point is
        # engine-agnostic.
        self.strategy = build_strategy(config)
        self.tables = self.strategy.build_tables()
        # Global-delivery watermark: the highest sequence of our own
        # stream that every node (us included) has acknowledged as
        # ``received``.  Send-buffer reclamation follows it — nothing else.
        self._delivery_watermark = 0
        # That column's floor as of the last scan (see
        # _rescan_received_floor), or infinity while it may have risen
        # unscanned — after a local send moved our own row off it, or a
        # restore — so that the next rising cell rescans.
        self._received_floor = 0
        # The engine holds the table map: frontiers nobody observes are
        # evaluated from it on demand instead of on every update.
        self.engine = FrontierEngine(config.dsl_context(), self.tables)
        self.engine.bind_obs(self.tracer, self.name)
        # Every slot advance feeds the instruments, which keep only the
        # local origin's (send→stable needs this node's clock at both ends).
        self.engine.on_advance = self.stability.on_advance
        self.detector = FailureDetector(self.sim, config)

        # Honest durability (opt-in): a per-node WAL whose group-commit
        # fsyncs gate every ``persisted`` claim this node makes.  Without
        # it only the origin's own row holds ``persisted`` (the
        # completeness rule); a receiver's cell moves when the
        # application calls ``report_stability``.
        self.durability: Optional[DurabilityManager] = None
        if config.durability:
            self.durability = DurabilityManager(
                self.sim,
                config,
                fs=fs,
                on_durable=self._on_durable,
                tracer=self.tracer,
            )
            self._persisted_skip = (self._type_ids["persisted"],)
        else:
            self._persisted_skip = ()
        self.fs = self.durability.fs if self.durability is not None else fs

        # Delivery handlers (on_delivery); the data plane delivers nothing
        # (and, untraced, reassembles nothing) until the first one is
        # registered.
        self._delivery_handlers: list = []
        # An arrived frame is one grant (the engine hears of the run's
        # last sequence, once); the WAL, when there is one, takes every
        # message of it.  A data-channel ACK is the peer's received
        # report, for an engine that takes it as one.
        durable = self.durability is not None
        self.dataplane = DataPlane(
            self.endpoint,
            config,
            on_arrival=self.strategy.on_remote_deliver,
            on_acked=self.strategy.on_peer_received,
            on_received=self.durability.append if durable else None,
            on_sent=self._on_sent if durable else None,
        )
        self.strategy.bind(self)
        # The carrier keeps its historical attribute name: the chaos
        # invariants, ops surfaces, and benchmarks read frame counters
        # off ``node.controlplane`` whichever engine is running.
        self.controlplane = self.strategy.carrier
        for key, source in config.predicates.items():
            self.engine.register_predicate(key, source)
            self.stability.register_key(key)
        # A restarted node may honestly re-claim what its recovered WAL
        # proves was fsynced before the crash — and must re-broadcast it,
        # because monotonic control traffic never repeats old values.
        if self.durability is not None:
            persisted = self._type_ids["persisted"]
            for origin, seq in self.durability.watermarks().items():
                self.strategy.grant_local(origin, persisted, seq)
        # Partition-aware degradation (Section III-E): transport dead-peer
        # reports feed the detector; suspicion and recovery transitions are
        # logged and handed to the user-registered degradation policy.
        self.degradation_policy: Optional[DegradationPolicy] = None
        self._degradation_log: List[Tuple[float, str, str]] = []
        self.degradations = 0
        self.reinclusions = 0
        self.endpoint.on_peer_dead = self._on_peer_dead
        self._peer_dead_handlers: List[PeerDeadFn] = []
        self.detector.on_suspect(self._on_peer_suspected)
        self.detector.on_recover(self._on_peer_recovered)
        # Every live peer's carrier heartbeats, so silence since start is
        # as telling as silence since a last frame: without this a peer
        # that died before its first frame would never be suspected.
        for peer in config.remote_names():
            self.detector.heard_from(peer)
        self.detector.start()
        # Edge admission (opt-in, like the degradation policy): installed
        # via set_admission; when present, direct sends preflight it.
        self.admission = None
        # Frontier-lag gauges: how far an (origin, type) ACK-table cell
        # of the *local row* trails the data plane's position.  Only for
        # cells this node grants — a cell nobody grants would read as a
        # backlog growing by one per message: ``received`` always,
        # ``persisted`` when the WAL grants it, any other from its first
        # ``report_stability``.
        self._lag_gauges: Set[Tuple[str, str]] = set()
        granted = ("received", "persisted") if config.durability else ("received",)
        for type_name in granted:
            for origin in config.node_names:
                self._register_lag_gauge(type_name, origin)

    def _register_lag_gauge(self, type_name: str, origin: str) -> None:
        type_id = self._type_ids[type_name]

        def lag():
            if origin == self.name:
                ref = self.dataplane.last_sent_seq()
            else:
                ref = self.dataplane.highest_received(origin)
            cell = self.tables[origin].get(self.local_index, type_id)
            return max(0, ref - cell)

        self._lag_gauges.add((type_name, origin))
        self.registry.gauge(f"frontier_lag.{origin}.{type_name}", fn=lag)

    def stacks(self) -> Dict[Optional[int], "Stabilizer"]:
        """This node as its per-shard stacks, keyed by shard id: itself,
        under its view's ``shard_id`` (``None`` when unsharded).  A
        :class:`~repro.core.sharding.ShardedStabilizer` answers with its
        live ``shards`` mapping, so code that serves either node kind
        iterates this instead of asking which kind it was given."""
        return {self.config.shard_id: self}

    # ------------------------------------------------------------------ sending
    def send(self, payload: Payload, meta=None) -> int:
        """Originate one message; returns the sequence number that stands
        for it (its last chunk).  Locally, every stability property holds
        for it immediately (the Section III-C completeness rule).

        With an admission controller attached the call first clears its
        fail-fast gate and may raise
        :class:`~repro.errors.AdmissionError` — *before* the message is
        sequenced, so a refusal never loses admitted work."""
        if self.admission is not None:
            self.admission.preflight()
        first, last = self.dataplane.send(payload, meta)
        self.stability.note_send(first, last)
        # With durability on, ``persisted`` is excluded from the
        # completeness rule: the origin may not claim its own bytes are
        # on disk until the WAL group commit's fsync says so.
        self.strategy.on_local_send(first, last)
        return last

    def last_sent_seq(self) -> int:
        return self.dataplane.last_sent_seq()

    # ------------------------------------------------------------------ stability API
    def waitfor(
        self,
        seq: int,
        predicate_key: Optional[str] = None,
        origin: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> Event:
        """An event that succeeds once ``seq`` satisfies the predicate.

        Mirrors the paper's blocking ``waitfor(sequence-number,
        predicate-key)``; in simulation the caller yields on the returned
        event.  ``origin`` defaults to this node's own stream.  With
        ``timeout_s`` the event instead *fails* with
        :class:`StabilizerError` if stability is not reached in time —
        how an application notices it must adjust a predicate after a
        crash (Section III-E).
        """
        event = self.sim.event()

        def release() -> None:
            if not event.triggered:
                event.succeed(seq)

        self.engine.add_waiter(
            origin or self.name, seq, release, key=predicate_key
        )
        if timeout_s is not None and not event.triggered:
            def expire() -> None:
                if not event.triggered:
                    event.fail(
                        StabilizerError(
                            f"waitfor(seq={seq}, key={predicate_key!r}) "
                            f"timed out after {timeout_s}s"
                        )
                    )

            self.sim.call_later(timeout_s, expire)
        return event

    def monitor_stability_frontier(self, predicate_key: str, fn) -> None:
        """Register ``fn(origin, frontier, old_frontier)`` on advances of
        ``predicate_key`` — the paper's update monitor."""
        self.engine.monitor_stability_frontier(predicate_key, fn)

    def register_predicate(self, key: str, source: str) -> None:
        self.engine.register_predicate(key, source)
        self.stability.register_key(key)
        # New predicates see the current table immediately.
        for origin in self.tables:
            self.engine.reevaluate(origin)

    def change_predicate(self, key: str, source: Optional[str] = None) -> None:
        """Switch the active predicate (optionally redefining it) —
        the dynamic-reconfiguration entry point of Section VI-D."""
        self.engine.change_predicate(key, source)
        for origin in self.tables:
            self.engine.reevaluate(origin)

    def get_stability_frontier(
        self, predicate_key: Optional[str] = None, origin: Optional[str] = None
    ) -> int:
        return self.engine.frontier(origin or self.name, predicate_key)

    def active_predicate_key(self) -> Optional[str]:
        return self.engine.active_key

    # ------------------------------------------------------------------ ack types
    def type_id(self, type_name: str) -> int:
        type_id = self._type_ids.get(type_name)
        if type_id is None:
            raise StabilizerError(
                f"unknown stability type {type_name!r}; "
                f"known: {', '.join(self._type_ids)}"
            )
        return type_id

    def register_stability_type(self, type_name: str) -> int:
        """Add an application-defined stability level at runtime."""
        if type_name in self._type_ids:
            raise StabilizerError(f"stability type {type_name!r} already exists")
        type_id = None
        for table in self.tables.values():
            type_id = table.add_type_column()
        self._type_ids[type_name] = type_id
        self.engine.ctx.types[type_name] = type_id
        self.engine.compiler.invalidate()
        # Completeness rule: the origin's own row holds every property.
        own = self.tables[self.name]
        own.update(self.local_index, type_id, self.last_sent_seq())
        return type_id

    def report_stability(
        self, type_name: str, seq: int, origin: Optional[str] = None
    ) -> None:
        """Report that this node grants ``origin``'s ``seq`` the
        application-defined stability level ``type_name``."""
        origin = origin or self.name
        self.strategy.grant_local(origin, self.type_id(type_name), seq)
        if (type_name, origin) not in self._lag_gauges:
            self._register_lag_gauge(type_name, origin)

    # ------------------------------------------------------------------ delivery
    def on_delivery(self, fn: DeliveryFn) -> None:
        """Subscribe to remote messages: ``fn(origin, seq, payload, meta)``."""
        self._delivery_handlers.append(fn)
        self.dataplane.on_deliver = self._on_deliver

    def on_peer_dead(self, fn: PeerDeadFn) -> None:
        """Subscribe to transport dead-peer reports: ``fn(peer, shard)``,
        after the local failure detector heard of it; ``shard`` is this
        stack's ``config.shard_id`` (None unsharded)."""
        self._peer_dead_handlers.append(fn)

    # ------------------------------------------------------------------ backpressure
    def on_backpressure(self, fn: Callable[[bool, int], None]) -> None:
        """Register ``fn(engaged, buffered_bytes)``: called with ``True``
        when the retained send buffer crosses its high watermark (the WAN
        is not draining) and with ``False`` once global-delivery
        reclamation brings it back under the low one."""
        self.dataplane.on_backpressure(fn)

    @property
    def backpressure_engaged(self) -> bool:
        """True while the bounded send buffer is above its high watermark."""
        return self.dataplane.backpressure_engaged

    def delivery_watermark(self) -> int:
        """Highest own-stream sequence acknowledged ``received`` by every
        node — the reclamation frontier of the send buffer."""
        return self._delivery_watermark

    def waitfor_capacity(self) -> Event:
        """An event that succeeds once backpressure is released (or at
        once, if it is not engaged) — how a producer pauses itself
        instead of running into :class:`~repro.errors.BackpressureError`."""
        event = self.sim.event()
        if not self.dataplane.backpressure_engaged:
            event.succeed(self.dataplane.buffer.buffered_bytes())
            return event

        def release(engaged: bool, buffered: int) -> None:
            if not engaged:
                self.dataplane.remove_backpressure(release)
                if not event.triggered:
                    event.succeed(buffered)

        self.dataplane.on_backpressure(release)
        return event

    # ------------------------------------------------------------------ membership
    def suspected_nodes(self):
        return self.detector.suspected()

    def set_degradation_policy(
        self,
        policy: Optional[DegradationPolicy] = None,
        protect=frozenset(),
    ) -> DegradationPolicy:
        """Install the user-defined degradation policy (Section III-E).

        With no arguments installs the stock
        :class:`~repro.core.degradation.MaskSuspectedPolicy`, which
        rewrites dependent predicates to exclude suspected nodes via the
        ``change_predicate`` path and restores them on recovery;
        ``protect`` lists predicate keys it must never touch.  Pass your
        own :class:`~repro.core.degradation.DegradationPolicy` subclass
        for anything else.  Returns the installed policy.
        """
        if policy is None:
            from repro.core.degradation import MaskSuspectedPolicy

            policy = MaskSuspectedPolicy(protect=set(protect))
        self.degradation_policy = policy
        # Peers already under suspicion degrade immediately.
        for peer in self.detector.suspected():
            policy.on_suspect(self, peer)
        return policy

    def set_admission(self, controller=None, **kwargs):
        """Attach an :class:`~repro.core.admission.AdmissionController`
        guarding this unsharded node's ingest (overload robustness; see
        ``docs/overload.md``).  Pass a prebuilt controller, or keyword
        arguments (``rate_per_s=...`` etc.) to construct one.  Its
        ``admission.*`` / ``breaker.*`` counters join :meth:`stats`, and
        every direct :meth:`send` preflights its fail-fast gate.
        Returns the installed controller.
        """
        if controller is None:
            from repro.core.admission import AdmissionController

            controller = AdmissionController(self, **kwargs)
        self.admission = controller
        return controller

    def degradation_log(self) -> List[Tuple[float, str, str]]:
        """Every (virtual time, transition, peer) suspicion/recovery
        event observed at this node, oldest first."""
        return list(self._degradation_log)

    def _on_peer_dead(self, peer: str, channel_name: str) -> None:
        # The paper's "data transmission failure information": the
        # transport exhausted its retransmit budget toward this peer.
        # Scope: this stack's endpoint only — under sharding each shard
        # stack has its own endpoint, port, and detector, so suspicion
        # here never leaks into co-owned shards with healthy links.
        self._degradation_log.append((self.sim.now, "transport_dead", peer))
        self.detector.suspect(peer)
        for fn in self._peer_dead_handlers:
            fn(peer, self.config.shard_id)

    def _on_peer_suspected(self, peer: str) -> None:
        self._degradation_log.append((self.sim.now, "suspect", peer))
        if self.degradation_policy is not None:
            self.degradations += 1
            self.degradation_policy.on_suspect(self, peer)

    def _on_peer_recovered(self, peer: str) -> None:
        self._degradation_log.append((self.sim.now, "recover", peer))
        # Suspended transport channels to the peer resume immediately —
        # the detector heard from it, so it is worth retransmitting.
        self.endpoint.revive_peer(peer)
        if self.degradation_policy is not None:
            self.reinclusions += 1
            self.degradation_policy.on_recover(self, peer)

    # ------------------------------------------------------------------ recovery
    def request_catchup(self) -> None:
        """Ask every peer to replay what this node missed while down.

        Called after :func:`repro.core.recovery.restore_state` on a
        restarted node: broadcasts a resume frame carrying the highest
        sequence this node holds per origin stream; each peer replays its
        buffered chunks above that watermark and re-sends its full control
        rows, all on freshly reset transport streams.  This node also
        replays its *own* buffered tail to any peer whose received-ack for
        our stream trails what we have buffered.
        """
        have = {}
        for origin in self.config.node_names:
            if origin == self.name:
                continue
            idx = self.config.node_index(origin)
            have[idx] = self.dataplane.highest_received(origin)
        self.controlplane.send_resume(have)
        # Our own stream: anything peers had not acked as received when we
        # snapshotted is still in the restored send buffer — resend it.
        received = self._type_ids["received"]
        table = self.tables[self.name]
        for peer in self.config.remote_names():
            peer_has = table.get(self.config.node_index(peer), received)
            # A rebalance joiner's column starts at zero even though the
            # state transfer covered everything already reclaimed (reclaim
            # waits for every then-owner); within one epoch the clamp is a
            # no-op because reclaim never passes any peer's received ack.
            peer_has = max(peer_has, self.dataplane.buffer.reclaimed_up_to)
            if self.dataplane.last_sent_seq() > peer_has:
                self.dataplane.replay_to(peer, peer_has)
        # Engine-specific restart work (e.g. re-reporting recovered grant
        # floors to a sequencer).  No-op for the ACK-table engine: peers
        # resync us in response to the resume broadcast above.
        self.strategy.on_catchup()

    def _on_resume_request(self, peer: str, have: Dict[int, int]) -> None:
        """A restarted ``peer`` asked for catch-up: replay our stream
        above its watermark and resync our acknowledgment rows."""
        self._degradation_log.append((self.sim.now, "resume_request", peer))
        # Clamp like request_catchup: a joiner rebuilt from a state
        # transfer may ask from zero, but the reclaimed prefix rode in
        # the handoff blob and no longer exists to replay.
        from_seq = max(
            have.get(self.local_index, 0), self.dataplane.buffer.reclaimed_up_to
        )
        self.dataplane.replay_to(peer, from_seq)
        self.strategy.on_resume_request(peer)
        self.detector.heard_from(peer)

    # ------------------------------------------------------------------ introspection
    def stats(self) -> Dict[str, float]:
        """Operational counters and gauges (for dashboards and tests).

        Assembled by the node's :class:`~repro.obs.metrics.MetricsRegistry`:
        the plane counters below plus every registered gauge (e.g. the
        ``frontier_lag.<origin>.<type>`` family).  Histogram summaries are
        not flattened here — see :meth:`obs_snapshot`.
        """
        return self.registry.collect()

    def obs_snapshot(self) -> Dict[str, object]:
        """The full observability view: flat metrics plus histogram
        summaries (notably the ``stability_latency.<key>`` family)."""
        snapshot = self.registry.snapshot()
        snapshot["node"] = self.name
        return snapshot

    def blame(self, keys=None, max_sends=None):
        """Critical-path attribution of this node's own stabilized sends
        from the flight-recorder ring: per predicate key, which peer's
        ACK arrived last and which segment (network / queueing / fsync /
        frontier-eval) dominated.  Returns a
        :class:`repro.obs.critpath.BlameTable` (empty when tracing is
        off or the ring holds no stabilized sends)."""
        from repro.obs.critpath import BlameTable, analyze

        if self.tracer.emitted == 0:
            return BlameTable()
        return analyze(
            self.tracer.events(), keys=keys, max_sends=max_sends, origin=self.name
        )

    def attach_alerter(self, alerter) -> None:
        """Wire an :class:`repro.obs.alerts.SloAlerter` into the node:
        every send→stable sample feeds the alerter as series
        ``stable.<key>``, and ``alerts.*`` counters join ``stats()``.
        Frontier-lag rules are fed by the caller's periodic
        ``alerter.observe("frontier_lag", ...)`` sampling."""
        self.alerter = alerter
        self.stability.on_sample = lambda key, latency: alerter.observe(
            f"stable.{key}", latency
        )

    def _collect_stats(self, stats: Dict[str, float]) -> None:
        stats.update({
            "messages_sent": self.dataplane.messages_sent,
            "messages_received": self.dataplane.messages_received,
            "buffered_bytes": self.dataplane.buffer.buffered_bytes(),
            "buffer_reclaimed": self.dataplane.buffer.total_reclaimed,
            "dataplane.payload_bytes_sent": self.dataplane.payload_bytes_sent,
            "predicate_evaluations": self.engine.evaluations,
            "predicate_evaluations_on_read": self.engine.evaluations_on_read,
            "evaluations_skipped_by_index": self.engine.skipped_by_index,
            "evaluations_skipped_by_shortcircuit": (
                self.engine.skipped_by_shortcircuit
            ),
            "frontier_fast_advances": self.engine.fast_advances,
            "predicate_compilations": self.engine.compiler.compilations,
            "predicate_cache_hits": self.engine.compiler.cache_hits,
            "pending_waiters": self.engine.pending_waiters(),
            "suspected_nodes": len(self.detector.suspected()),
            "suspicions": self.detector.suspicions,
            "recoveries": self.detector.recoveries,
            "degradations": self.degradations,
            "reinclusions": self.reinclusions,
            "duplicates_dropped": self.dataplane.duplicates_dropped,
            "replayed_chunks": self.dataplane.replayed_chunks,
            "stale_epoch_frames": (
                self.dataplane.stale_epoch_frames
                + self.controlplane.stale_epoch_frames
            ),
            "shard_epoch": self.config.shard_epoch,
            "transport_retransmissions": sum(
                c.retransmissions for c in self.endpoint.channels().values()
            ),
            "transport_suspensions": sum(
                c.suspensions for c in self.endpoint.channels().values()
            ),
            "trace_events": self.tracer.emitted,
            "dataplane.frames_sent": self.dataplane.frames_sent,
            "dataplane.frames_received": self.dataplane.frames_received,
            "dataplane.frame_messages": self.dataplane.frame_messages,
            "dataplane.frame_payload_bytes": self.dataplane.frame_payload_bytes,
            "dataplane.max_frame_messages": self.dataplane.max_frame_messages,
            "dataplane.delivery_watermark": self._delivery_watermark,
            "window.stalls": 0,  # no send window; see the catalogue
            "backpressure.events": self.dataplane.backpressure_events,
        })
        # The engine-comparable strategy.* family plus the running
        # engine's strategy.<name>.* extras (e.g.
        # strategy.acktable.reports_sent).
        stats.update(self.strategy.stats())
        if self.durability is not None:
            stats.update(self.durability.stats())
        if self.admission is not None:
            stats.update(self.admission.stats())
        if self.alerter is not None:
            stats.update(self.alerter.stats())
        if self.blame_in_stats and self.tracer.enabled:
            if self._blame_cache_key != self.tracer.emitted:
                self._blame_cache = self.blame().metrics()
                self._blame_cache_key = self.tracer.emitted
            if self._blame_cache:
                stats.update(self._blame_cache)

    # ------------------------------------------------------------------ internals
    def _on_sent(self, seq: int, payload: Payload) -> None:
        # Our own stream enters the WAL as each chunk is originated.
        self.durability.append(self.name, seq, payload)

    def _on_durable(self, tops: Dict[str, int]) -> None:
        """A WAL group commit's fsync returned: everything of each origin
        up to its top is genuinely on this node's disk — only now may
        ``persisted`` be claimed (locally and to every peer)."""
        self.strategy.grant_durable(self._type_ids["persisted"], tops)

    def _on_deliver(self, origin: str, seq: int, payload: Payload, meta) -> None:
        for handler in self._delivery_handlers:
            handler(origin, seq, payload, meta)

    def _rescan_received_floor(self) -> None:
        """Reclaim send-buffer space once messages are received everywhere.

        Driven directly by the ACK table — the MIN over every node's
        ``received`` cell for our own stream — independent of whatever
        predicate the frontier engine is evaluating.  The engines call
        this only when a ``received`` cell of our table rose from at or
        below :attr:`_received_floor`: the floor is a minimum and cells
        only rise, so no other update can move it.
        """
        received = self.strategy.received_id
        rows = self.tables[self.name].table
        floor = rows[0][received]
        for row in rows:
            if row[received] < floor:
                floor = row[received]
        self._received_floor = floor
        if floor > self._delivery_watermark:
            self._delivery_watermark = floor
            self.dataplane.reclaim_up_to(floor)

    # ------------------------------------------------------------------ teardown
    def close(self) -> None:
        """Graceful shutdown: the WAL gets a final group commit (whose
        ``persisted`` reports still flow while the control plane lives),
        then timers stop."""
        if self.admission is not None:
            self.admission.close()
        if self.durability is not None:
            self.durability.close(sync=True)
        self.detector.stop()
        self.strategy.close()
        self.endpoint.close()

    def crash(self) -> None:
        """Crash teardown: no parting flush, no goodbyes.  Whatever the
        WAL had not fsynced is abandoned — exactly the state of affairs
        this node's ``persisted`` column always admitted to."""
        if self.admission is not None:
            self.admission.close()
        if self.durability is not None:
            self.durability.crash()
        self.detector.stop()
        self.strategy.close()  # stops timers; no engine sends a parting frame
        self.endpoint.close()
