"""Safety invariants checked while chaos runs.

The checker observes a cluster *from the outside* — through the same
monitor / waiter / stats surfaces an application uses — and raises
:class:`InvariantViolation` the moment any safety property breaks:

1. **Monitor monotonicity.**  Per (node, origin stream, predicate key),
   frontier values reported to ``monitor_stability_frontier`` callbacks
   never decrease — not across predicate degradation (masking), not
   across recovery (unmasking), not across a crash-restart of the
   observing node.  History is keyed by node *name*, so a restarted
   incarnation is held to everything its predecessor reported.
2. **No frontier beyond the stream.**  A reported frontier never exceeds
   the highest sequence number the origin actually sent.
3. **No early waiter release.**  When a guarded ``waitfor`` releases,
   the predicate is re-evaluated directly against the node's ACK table
   and must cover the target sequence.
4. **ACK-cell monotonicity.**  Sampled across every live node's tables,
   no cell ever regresses (restarts restore at least what was acked).
5. **Eventual delivery.**  At quiescence, every message sent by every
   origin — including before a crash or partition — has been received
   by every node (checked via the data plane's per-origin watermark).
6. **Durability honesty.**  On every durability-enabled node, the node's
   own ``persisted`` ACK cell never exceeds its WAL's fsync-confirmed
   watermark — sampled continuously and re-checked across crash-restart
   (the recovered WAL must back everything the node ever claimed).
7. **No acked-persisted loss.**  Any sequence whose ``persisted`` report
   from node A was *observed at a peer* (A published the claim; an
   application may have acted on it) survives A's crash: after restart,
   A's recovered WAL watermark covers every observed claim.
8. **No reclaim before global delivery.**  A node's send buffer is only
   reclaimed up to sequences every peer has actually received: for every
   live pair (A, B), A's ``reclaimed_up_to`` never exceeds B's receive
   watermark for A's stream.  (Crashed peers freeze A's ACK row for
   them, so reclaim cannot outrun a node that is down.)
9. *Retired.*  It checked the per-peer send window's credit
   accounting.  The data plane has no send window and no per-peer send
   state: every frame goes on its link when it is cut, so there are no
   credits to leak.  The number is kept so the others keep theirs.
10. **No delivery lost across a cutover.**  At every rebalance cutover
    the coordinator reports, per (moved shard, surviving origin), the
    highest receive watermark any live pre-cutover owner held
    (:meth:`note_cutover`).  At quiescence every *current* owner of the
    shard must sit at or above that baseline — state handoff plus the
    dual-delivery catch-up window may never lose a message that some
    old owner had already delivered.
11. **Replication factor restored.**  At quiescence every shard's owner
    set is back to full strength — ``min(replication, len(nodes))``
    distinct owners, each with a live (built, non-pending) shard stack
    — including after node_leave decommissions and failover
    re-replication away from declared-dead owners.
12. **Exactly one owner set per (shard, epoch).**  Every shard map the
    cluster ever adopts assigns each shard exactly one owner set at
    each membership epoch; two cutovers may never disagree about who
    owned a shard at a given epoch (:meth:`note_owner_map`).
13. **An admitted message is never shed.**  Edge admission may refuse
    or shed work *before* it is sequenced, never after: on every
    :class:`~repro.core.admission.AdmissionController`, the
    admitted-then-shed counter stays zero and the offered count is
    conserved — ``offered == admitted + shed + queue_depth``
    (:meth:`check_admission`).  Whatever was admitted then falls under
    invariant 5 like any other send.
14. **Overload degradation is temporary.**  After load subsides, every
    :class:`~repro.core.slacontrol.SlaController` has walked its
    predicate back to level 0 with the pristine source installed, and
    the node has no local send its frontier still leaves uncovered
    (:meth:`check_sla_restoration`) — the controller borrows
    consistency during the surge, it never keeps it.

15. **The frontier is the predicate of the table.**  At quiescence, on
    every node and for every (origin stream, predicate key),
    ``get_stability_frontier`` equals the registered predicate evaluated
    directly on that node's ACK table (:meth:`check_frontiers`) —
    whether the slot was evaluated eagerly on every update because
    somebody observed it, or is evaluated on demand because nobody does.

Every individual comparison counts toward ``checks``; the bench harness
divides by wall-clock time for the invariant-check throughput trajectory.

**Shard scoping.**  Under partial replication
(:class:`~repro.core.sharding.ShardedStabilizer`) a node legitimately
never sees the ACK cells, streams, or buffers of shards it does not own
— those are *out of scope*, not violations.  The checker therefore
decomposes every node into ``(shard, stack)`` units and runs each
invariant within a shard's owner set only: delivery of shard *s* is
checked at *s*'s owners, reclaim at *A* is compared against peers that
own the same shard, and monitor/table history is keyed per shard.  A
plain unsharded Stabilizer is simply the single unit ``(0, node)``, so
the pre-sharding behaviour (and API) is unchanged.

**Rebalance scoping.**  Live membership changes move shards between
owner sets.  A stream's scope follows the owner set: when an origin
releases a shard its stream there is dropped everywhere (delivery of it
is owed to nobody from then on), and when a node gains a shard its own
stream on that shard restarts at sequence 1.  The checker learns of
each cutover via :meth:`note_cutover`, which resets the sent record,
cutover baselines, and monitor history of every such restarted
``(shard, origin)`` stream; delivery checks skip origins outside a
shard view's membership.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class InvariantViolation(AssertionError):
    """A chaos safety invariant was broken."""


class InvariantChecker:
    """See module docstring.  One checker observes one cluster."""

    def __init__(self):
        # (node, shard, origin, key) -> highest frontier a monitor reported.
        self._monitor_high: Dict[Tuple[str, int, str, str], int] = {}
        # (origin, shard) -> highest sequence it ever sent (fed by harness).
        self._sent: Dict[Tuple[str, int], int] = {}
        # (node, shard, origin) -> last sampled ACK-table rows.
        self._rows: Dict[Tuple[str, int, str], List[List[int]]] = {}
        # (claimant, shard, origin) -> highest persisted claim a *peer* holds.
        self._observed_persisted: Dict[Tuple[str, int, str], int] = {}
        # (shard, origin) -> receive watermark some pre-cutover owner held
        # at the last cutover that moved the shard (invariant 10).
        self._cutover_baselines: Dict[Tuple[int, str], int] = {}
        # (shard, epoch) -> the one owner set adopted there (invariant 12).
        self._owner_sets: Dict[Tuple[int, int], Tuple[str, ...]] = {}
        self.checks = 0
        self.monitor_events = 0
        self.releases_checked = 0
        self.restarts_checked = 0
        self.cutovers_checked = 0
        self.violations: List[str] = []
        # Flight recorder (optional): a shared Tracer the harness wires
        # in.  On any violation its ring is dumped to ``dump_path`` as a
        # Chrome trace and the last events are appended to the failure
        # message, so a bare pytest log is actionable without a rerun.
        self.flight_recorder = None
        self.dump_path = None
        self.tail_events = 50
        self.dumped_to = None

    # -- wiring ----------------------------------------------------------------
    @staticmethod
    def _units(node) -> List[Tuple[int, object]]:
        """``node.stacks()`` as ``(shard, stack)`` pairs, an unsharded
        node's one stack counted as shard 0.  Only *live* stacks appear —
        unowned shards do not, so nothing downstream ever treats their
        absent cells as evidence."""
        return [
            (0 if shard is None else shard, unit)
            for shard, unit in node.stacks().items()
        ]

    def note_sent(self, origin: str, seq: int, shard: int = 0) -> None:
        slot = (origin, shard)
        self._sent[slot] = max(self._sent.get(slot, 0), seq)

    def sent_high(self) -> Dict[str, int]:
        """Per-origin highest sequence sent, the max across its shards
        (an unsharded node sends everything in shard 0), sorted by origin."""
        high: Dict[str, int] = {}
        for (origin, _shard), seq in self._sent.items():
            high[origin] = max(high.get(origin, 0), seq)
        return dict(sorted(high.items()))

    def attach(self, node, shards=None) -> None:
        """Register monitors on every predicate of ``node`` (each owned
        shard of a sharded node).

        Call again for the new instance after a restart — the recorded
        history is keyed by node name (and shard) and survives the old
        incarnation.  ``shards`` restricts registration to those shard
        stacks: a rebalance cutover rebuilds only the *moved* shards'
        stacks, and re-attaching an untouched stack would double its
        monitors.
        """
        for shard, unit in self._units(node):
            if shards is not None and shard not in shards:
                continue
            for key in unit.engine.predicate_keys():
                unit.monitor_stability_frontier(
                    key, self._make_monitor(node.name, shard, key)
                )

    def _make_monitor(self, node_name: str, shard: int, key: str):
        def observe(origin: str, frontier: int, old: int) -> None:
            self.monitor_events += 1
            self._check_monitor(node_name, shard, origin, key, frontier)

        return observe

    def guarded_waitfor(
        self,
        node,
        seq: int,
        key: str,
        timeout_s: float,
        shard: Optional[int] = None,
    ):
        """A ``waitfor`` whose release is verified against the table.

        For a sharded node, ``shard`` selects the stream (default: its
        lowest owned shard, matching ``ShardedStabilizer.send``)."""
        units = dict(self._units(node))
        if shard is None:
            shard = min(units)
        unit = units[shard]
        event = unit.waitfor(seq, key, timeout_s=timeout_s)

        def verify(ev) -> None:
            if not ev.ok:
                return  # timeout: a liveness matter, not a safety one
            self.releases_checked += 1
            self._check_release(unit, seq, key)

        event.add_callback(verify)
        return event

    # -- the invariants ----------------------------------------------------------
    def _fail(self, message: str) -> None:
        detail = self._flight_dump()
        if detail:
            message = f"{message}\n{detail}"
        self.violations.append(message)
        raise InvariantViolation(message)

    def _flight_dump(self) -> str:
        """Dump the flight recorder (if wired) and format its tail."""
        recorder = self.flight_recorder
        if recorder is None or not getattr(recorder, "enabled", False):
            return ""
        lines = []
        if self.dump_path is not None:
            try:
                count = recorder.to_chrome_file(self.dump_path)
            except OSError as exc:  # never mask the real violation
                lines.append(f"flight recorder dump failed: {exc}")
            else:
                self.dumped_to = str(self.dump_path)
                lines.append(
                    f"flight recorder: {count} events "
                    f"({recorder.dropped} older dropped) dumped to "
                    f"{self.dump_path} (load in chrome://tracing)"
                )
        tail = min(self.tail_events, len(recorder))
        if tail:
            lines.append(f"last {tail} trace events:")
            lines.append(recorder.format_tail(tail))
        # Critical-path attribution over the same ring: when the run got
        # far enough to stabilize sends, name the straggler peers — the
        # node holding frontiers back is usually the node that broke the
        # invariant's timing assumptions.  Best-effort: the dump must
        # never mask the real violation.
        try:
            from repro.obs.critpath import analyze

            blame = analyze(recorder.events())
            if blame.sends:
                lines.append(blame.format().rstrip("\n"))
        except Exception as exc:  # pragma: no cover - defensive
            lines.append(f"blame analysis failed: {exc}")
        return "\n".join(lines)

    def _check_monitor(
        self, node_name: str, shard: int, origin: str, key: str, frontier: int
    ) -> None:
        slot = (node_name, shard, origin, key)
        high = self._monitor_high.get(slot, 0)
        self.checks += 1
        if frontier < high:
            self._fail(
                f"monitor regression at {node_name}: {key!r} frontier for "
                f"origin {origin!r} (shard {shard}) reported {frontier} "
                f"after {high}"
            )
        self._monitor_high[slot] = frontier
        self.checks += 1
        sent = self._sent.get((origin, shard))
        if sent is not None and frontier > sent:
            self._fail(
                f"phantom stability at {node_name}: {key!r} frontier "
                f"{frontier} for origin {origin!r} (shard {shard}) exceeds "
                f"last sent {sent}"
            )

    def _check_release(self, node, seq: int, key: str) -> None:
        predicate = node.engine.predicate(key)
        value = predicate.evaluate(node.tables[node.name].table)
        self.checks += 1
        if value < seq:
            self._fail(
                f"early release at {node.name}: waitfor({seq}, {key!r}) "
                f"released while the predicate evaluates to {value}"
            )

    def check_tables(self, nodes) -> None:
        """Assert no sampled ACK cell regressed since the last sample;
        sample durability honesty and peer-observed persisted claims.
        Each node contributes only the shards it owns — absent cells of
        unowned shards are out of scope, never violations."""
        for node in nodes:
            for shard, unit in self._units(node):
                for origin, table in unit.tables.items():
                    current = table.snapshot()
                    slot = (node.name, shard, origin)
                    previous = self._rows.get(slot)
                    if previous is not None:
                        for row_i, row in enumerate(previous):
                            for col_i, old_value in enumerate(row):
                                self.checks += 1
                                if current[row_i][col_i] < old_value:
                                    self._fail(
                                        f"ACK regression at {node.name}: "
                                        f"origin {origin!r} (shard {shard}) "
                                        f"cell ({row_i},{col_i}) went "
                                        f"{old_value} -> "
                                        f"{current[row_i][col_i]}"
                                    )
                    self._rows[slot] = current
                    self._observe_persisted(unit, shard, origin, current)
                self._check_durability_honesty(unit, shard, node.name)
        self.check_reclaim(nodes)

    @classmethod
    def _shard_units(cls, nodes) -> Dict[int, List[Tuple[str, object]]]:
        """Group every node's per-shard stacks by shard: only co-owners
        of a shard are comparable to each other."""
        by_shard: Dict[int, List[Tuple[str, object]]] = {}
        for node in nodes:
            for shard, unit in cls._units(node):
                by_shard.setdefault(shard, []).append((node.name, unit))
        return by_shard

    def check_reclaim(self, nodes) -> None:
        """Invariant 8: no live node has reclaimed send-buffer space for a
        sequence some other live *co-owner of the same shard* has not
        received.  Non-owners never receive the stream and are out of
        scope."""
        for shard, members in self._shard_units(nodes).items():
            live = [
                (name, unit)
                for name, unit in members
                if hasattr(unit, "dataplane")
            ]
            for name, unit in live:
                reclaimed = unit.dataplane.buffer.reclaimed_up_to
                if reclaimed == 0:
                    continue
                for peer_name, peer in live:
                    if peer is unit:
                        continue
                    self.checks += 1
                    got = peer.dataplane.highest_received(name)
                    if reclaimed > got:
                        self._fail(
                            f"premature reclaim at {name}: shard {shard} "
                            f"buffer reclaimed up to {reclaimed} but "
                            f"{peer_name} has received only {got} of "
                            f"{name}'s stream"
                        )

    def _observe_persisted(self, node, shard: int, origin: str, rows) -> None:
        """Record every *other* node's persisted claim as held at
        ``node`` — once a claim reaches a peer it can never be unsaid,
        and :meth:`check_restart` holds the claimant's recovered WAL to
        it."""
        if not hasattr(node, "type_id"):
            return  # a stub observer (unit tests) with no type registry
        persisted = node.type_id("persisted")
        for row_i, row in enumerate(rows):
            claimant = node.config.node_names[row_i]
            if claimant == node.name:
                continue  # own column: locally derived, not an observation
            slot = (claimant, shard, origin)
            if row[persisted] > self._observed_persisted.get(slot, 0):
                self._observed_persisted[slot] = row[persisted]

    def _check_durability_honesty(
        self, node, shard: int = 0, node_name: Optional[str] = None
    ) -> None:
        """Invariant 6: a node's own persisted cell never exceeds what
        its WAL has actually fsynced."""
        if getattr(node, "durability", None) is None:
            return
        node_name = node_name or node.name
        persisted = node.type_id("persisted")
        for origin, table in node.tables.items():
            self.checks += 1
            claimed = table.get(node.local_index, persisted)
            fsynced = node.durability.watermark(origin)
            if claimed > fsynced:
                self._fail(
                    f"durability lie at {node_name}: persisted cell for "
                    f"origin {origin!r} (shard {shard}) claims {claimed} "
                    f"but the WAL has fsynced only {fsynced}"
                )

    def check_restart(self, node) -> None:
        """Invariants 6 + 7 across a crash-restart: the recovered WAL
        backs the node's restored claims *and* every claim a peer ever
        observed from its previous incarnations — per owned shard."""
        self.restarts_checked += 1
        for shard, unit in self._units(node):
            self._check_durability_honesty(unit, shard, node.name)
            if getattr(unit, "durability", None) is None:
                continue
            for origin in unit.config.node_names:
                self.checks += 1
                observed = self._observed_persisted.get(
                    (node.name, shard, origin), 0
                )
                recovered = unit.durability.watermark(origin)
                if recovered < observed:
                    self._fail(
                        f"acked-persisted loss at {node.name}: a peer "
                        f"observed persisted={observed} for origin "
                        f"{origin!r} (shard {shard}) but the recovered WAL "
                        f"proves only {recovered}"
                    )

    def note_owner_map(self, shard_map) -> None:
        """Invariant 12: record (and cross-check) the owner set the
        cluster adopted for every shard at ``shard_map``'s epoch.  Call
        once for the initial map and once per cutover — two maps at the
        same epoch must agree shard by shard."""
        epoch = shard_map.epoch
        for shard in range(shard_map.shard_count):
            owners = tuple(shard_map.owners(shard))
            slot = (shard, epoch)
            recorded = self._owner_sets.get(slot)
            self.checks += 1
            if recorded is not None and recorded != owners:
                self._fail(
                    f"divergent ownership: shard {shard} at epoch {epoch} "
                    f"maps to {owners} after being recorded as {recorded}"
                )
            self._owner_sets[slot] = owners

    def note_cutover(self, plan, watermarks: Dict[Tuple[int, str], int]) -> None:
        """Bookkeeping at a rebalance cutover instant (invariants 10+12).

        ``plan`` is the adopted
        :class:`~repro.core.membership.RebalancePlan`; ``watermarks``
        maps ``(shard, origin)`` to the highest receive watermark any
        live pre-cutover owner held, as captured by the coordinator.

        A joiner's stream on its new shard restarts at sequence 1 (any
        earlier tenure's stream was dropped when it released the shard),
        so the joiner's sent record, cutover baseline, and monitor
        history for that ``(shard, origin)`` are reset before the new
        baselines land.
        """
        self.note_owner_map(plan.new_map)
        self.cutovers_checked += 1
        for move in plan.moves:
            for joiner in set(move.new) - set(move.old):
                self._sent.pop((joiner, move.shard_id), None)
                self._cutover_baselines.pop((move.shard_id, joiner), None)
                for slot in [
                    s
                    for s in self._monitor_high
                    if s[1] == move.shard_id and s[2] == joiner
                ]:
                    del self._monitor_high[slot]
        for slot, watermark in watermarks.items():
            self._cutover_baselines[slot] = max(
                self._cutover_baselines.get(slot, 0), watermark
            )

    @staticmethod
    def _in_stream_scope(origin: str, name: str, unit) -> bool:
        """Whether ``unit`` (owned by ``name``) owes delivery of
        ``origin``'s stream: not its own stream, and ``origin`` is in the
        unit's owner-set view (units without a config — bare stacks in
        unit tests — have no membership to scope by)."""
        if origin == name:
            return False
        members = getattr(getattr(unit, "config", None), "node_names", None)
        return members is None or origin in members

    def check_cutover_preservation(self, nodes) -> None:
        """Invariant 10: at quiescence, every current owner of a moved
        shard holds at least what some pre-cutover owner had already
        delivered.  Origins no longer in the shard's membership are out
        of scope (their streams left with them)."""
        by_shard = self._shard_units(nodes)
        for (shard, origin), base in self._cutover_baselines.items():
            for name, unit in by_shard.get(shard, ()):
                if not self._in_stream_scope(origin, name, unit):
                    continue
                self.checks += 1
                got = unit.dataplane.highest_received(origin)
                if got < base:
                    self._fail(
                        f"delivery lost across cutover: {name} has {got} of "
                        f"origin {origin!r}'s shard-{shard} stream but the "
                        f"pre-cutover owners had delivered {base}"
                    )

    def check_replication(self, cluster) -> None:
        """Invariant 11: every shard's owner set is back to full
        replication strength, each owner running a live (built,
        non-pending, unfrozen) stack for it — after planned leaves and
        failover re-replication alike."""
        shard_map = cluster.shard_map
        node_names = shard_map.node_names
        replication = shard_map.replication
        expected = (
            len(node_names)
            if replication is None
            else min(replication, len(node_names))
        )
        for shard in range(shard_map.shard_count):
            owners = shard_map.owners(shard)
            self.checks += 1
            if len(set(owners)) != expected:
                self._fail(
                    f"replication not restored: shard {shard} has owner set "
                    f"{list(owners)}, expected {expected} distinct owners"
                )
            for owner in owners:
                node = cluster.nodes.get(owner)
                self.checks += 1
                if node is None or shard not in node.stacks():
                    self._fail(
                        f"replication not restored: shard {shard} owner "
                        f"{owner!r} has no live stack for it"
                    )
                elif shard in node.frozen_shards():
                    self._fail(
                        f"replication not restored: shard {shard} is still "
                        f"frozen at owner {owner!r}"
                    )

    def check_admission(self, controllers) -> None:
        """Invariant 13: sample every admission controller's accounting.

        ``controllers`` is an iterable of ``(label, controller)`` pairs
        (the label names the node in failure messages).  Safe to call
        continuously — the conservation law holds at every instant, not
        just at quiescence."""
        for label, controller in controllers:
            stats = controller.stats()
            self.checks += 1
            if stats["admission.admitted_shed"] != 0:
                self._fail(
                    f"admitted message shed at {label}: "
                    f"{stats['admission.admitted_shed']} messages were "
                    "dropped after admission assigned them a sequence"
                )
            self.checks += 1
            balance = (
                stats["admission.admitted"]
                + stats["admission.shed"]
                + stats["admission.queue_depth"]
            )
            if stats["admission.offered"] != balance:
                self._fail(
                    f"admission accounting leak at {label}: offered "
                    f"{stats['admission.offered']} != admitted "
                    f"{stats['admission.admitted']} + shed "
                    f"{stats['admission.shed']} + queued "
                    f"{stats['admission.queue_depth']}"
                )

    def check_sla_restoration(self, controllers) -> None:
        """Invariant 14: at quiescence every SLA controller is back to
        strict.  ``controllers`` is an iterable of ``(label,
        controller)`` pairs.  Only meaningful after the surge ended and
        the settle loop gave the restore path ``healthy_ticks`` worth of
        calm — calling it mid-surge asserts the wrong thing."""
        for label, controller in controllers:
            self.checks += 1
            if not controller.restored():
                current = controller.stabilizer.engine.predicate(
                    controller.key
                ).source
                self._fail(
                    f"degradation not walked back at {label}: "
                    f"{controller.key!r} is at level {controller.level} "
                    f"with source {current!r}, expected level 0 and "
                    f"{controller.original_source!r}"
                )
            self.checks += 1
            pending = controller.stabilizer.stability.oldest_pending_age(
                controller.key
            )
            if pending > 0.0:
                self._fail(
                    f"SLA not recovered at {label}: oldest local send "
                    f"under {controller.key!r} has been pending "
                    f"{pending:.3f}s at quiescence"
                )

    def forget_node(self, name: str) -> None:
        """Drop table samples for a crashing node.

        A restarted node restores from its snapshot, whose tables may
        trail the last live sample by in-flight control traffic; cell
        monotonicity is re-seeded at the first post-restart sample.
        Monitor history is deliberately *kept* — restored frontiers must
        never regress below what the old incarnation reported.
        """
        for slot in [s for s in self._rows if s[0] == name]:
            del self._rows[slot]

    def check_delivery(self, nodes) -> None:
        """At quiescence: everything ever sent reached every *owner of
        that shard*.  Non-owners never replicate the stream; expecting
        delivery there would be a false positive under partial
        replication.  An origin outside a shard view's membership (it
        released the shard, or left the deployment, at a cutover) is
        likewise out of scope — its stream was dropped with it."""
        by_shard = self._shard_units(nodes)
        for (origin, shard), sent in self._sent.items():
            for name, unit in by_shard.get(shard, ()):
                if not self._in_stream_scope(origin, name, unit):
                    continue
                self.checks += 1
                got = unit.dataplane.highest_received(origin)
                if got < sent:
                    self._fail(
                        f"lost messages: {name} has {got} of origin "
                        f"{origin!r}'s shard-{shard} stream, {sent} were sent"
                    )
        self.check_cutover_preservation(nodes)
        self.check_frontiers(nodes)

    def check_frontiers(self, nodes) -> None:
        """Invariant 15: at quiescence every frontier a node reports is
        its predicate evaluated on its own table."""
        for node in nodes:
            for shard, unit in self._units(node):
                for origin, table in unit.tables.items():
                    for key in unit.engine.predicate_keys():
                        self.checks += 1
                        reported = unit.get_stability_frontier(key, origin)
                        expected = unit.engine.predicate(key).evaluate(table.table)
                        if reported != expected:
                            self._fail(
                                f"stale frontier at {node.name}: origin "
                                f"{origin!r} (shard {shard}) key {key!r} "
                                f"reads {reported}, the table says {expected}"
                            )

    def all_delivered(self, nodes) -> bool:
        """Non-asserting convergence probe used by the settle loop."""
        by_shard = self._shard_units(nodes)
        for (origin, shard), sent in self._sent.items():
            for name, unit in by_shard.get(shard, ()):
                if not self._in_stream_scope(origin, name, unit):
                    continue
                if unit.dataplane.highest_received(origin) < sent:
                    return False
        return True
