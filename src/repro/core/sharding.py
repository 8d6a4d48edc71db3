"""Partial replication: one Stabilizer stack per owned shard.

ROADMAP item 1, after Xiang & Vaidya's *Global Stabilization for Causally
Consistent Partial Replication*: the key space hashes into shards, each
shard is owned by a subset of the WAN nodes, and a node allocates ACK
tables, frontier engines, predicate registries, and send buffers only for
the shards it owns.  Both planes route to the shard's owner set instead
of every node, cutting control fan-out from ``O(nodes)`` to
``O(owners)`` and per-node memory from ``O(total keys)`` to ``O(owned
shards)``.

The composition is deliberate: a :class:`ShardedStabilizer` runs one full
:class:`~repro.core.stabilizer.Stabilizer` per *owned* shard, built from
the shard-view config (:meth:`~repro.core.config.StabilizerConfig.shard_view`)
whose node list *is* the shard's owner set, on a per-shard transport
port.  Owner-set routing, per-shard sequence spaces, per-shard ACK
tables, and per-shard predicate scopes all fall out structurally — and
the degenerate configuration (every node owns every shard) is
*identical* to the unsharded engine, which the equivalence tests pin
down seed-for-seed.

Predicates registered on a sharded node compile against each shard
view's context, where ``$ALLWNODES`` and ``$SHARDWNODES`` both mean the
owner set.  Use the ``$SHARDWNODES`` spelling
(:func:`repro.dsl.stdlib.shard_standard_predicates`) to make the scoping
explicit; ``$WNODE_<name>`` references to non-owners fail at compile
time rather than waiting forever.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Set,
                    Tuple)

from repro.core.config import StabilizerConfig
from repro.core.stabilizer import Stabilizer
from repro.errors import StabilizerError
from repro.net.topology import Network
from repro.sim.events import Event
from repro.transport.messages import Payload

# fn(origin, seq, payload, meta, shard)
ShardDeliveryFn = Callable[[str, int, Payload, object, int], None]
# fn(peer, shard) — a transport dead-peer report re-scoped to the shard
# stack whose endpoint produced it.
ShardPeerDeadFn = Callable[[str, int], None]


class ShardedStabilizer:
    """One node of a partially replicated deployment; see module docstring.

    ``config`` is the *global* deployment config carrying ``shard_count``
    and ``shard_replication`` (or an explicit ``shard_owners`` mapping).
    Every key-taking call (``send``, ``waitfor``, ...) resolves its shard
    through the deployment's :class:`~repro.core.membership.ShardMap`;
    operations on shards this node does not own raise
    :class:`~repro.errors.StabilizerError` naming the owners to route to.
    """

    def __init__(
        self,
        net: Network,
        config: StabilizerConfig,
        fs=None,
        tracer=None,
        pending_shards: Iterable[int] = (),
        shard_epochs: Optional[Dict[int, int]] = None,
    ):
        from repro.core.rebalance import HandoffManager

        self.net = net
        self.sim = net.sim
        self.config = config
        self.name = config.local
        self.tracer = tracer
        self.shard_map = config.shard_map()
        self.owned_shards: Tuple[int, ...] = self.shard_map.owned_shards(
            config.local
        )
        # Shards this node owns in the current map but whose state has
        # not arrived yet: a joiner mid-handoff lists every shard it is
        # winning here, and builds the stack only at cutover (from the
        # transferred snapshot).  A pending shard has no live stack, so
        # operations on it raise the routed error like any unowned shard.
        self.pending_shards: Set[int] = set(pending_shards)
        for shard in self.pending_shards:
            if shard not in self.owned_shards:
                raise StabilizerError(
                    f"pending shard {shard} is not owned by {self.name!r}"
                )
        # Shards frozen for an in-flight rebalance: local sends raise a
        # routed error until cutover (in-flight traffic keeps draining).
        self._frozen: Set[int] = set()
        self.shards: Dict[int, Stabilizer] = {}
        self._delivery_handlers: List[ShardDeliveryFn] = []
        self._peer_dead_handlers: List[ShardPeerDeadFn] = []
        # Runtime-registered predicate/type/policy state, tracked so a
        # stack rebuilt at cutover is configured identically to the ones
        # it joins (ctor-time predicates ride in on the shard view).
        self._runtime_predicates: Dict[str, str] = {}
        self._extra_types: List[str] = []
        self._policy_args: Optional[Tuple] = None
        # Per-shard epoch overrides for crash-restarts: an unmoved shard
        # runs cluster-wide at the epoch of the map it was *built* from,
        # which may trail the adopted config's epoch (kept stacks are not
        # rebuilt at cutover).  A restarted node must stamp each shard's
        # frames with that shard's running epoch or every peer fences
        # them.  Cleared at cutover — rebuilds there use the new epoch.
        self._shard_epoch_overrides: Dict[int, int] = dict(shard_epochs or {})
        # Edge admission (opt-in): one controller spans every owned
        # shard, with per-(peer, shard) breakers — see set_admission.
        self.admission = None
        self.fs = fs
        for shard in self.owned_shards:
            if shard in self.pending_shards:
                continue
            self._build_shard(shard)
        # State-handoff receiver/sender: its endpoint lives on its own
        # port, structurally outside every shard stack — a handoff
        # channel giving up on a peer must never mark that peer suspect
        # in a shard's failure detector.
        self.handoff = HandoffManager(net, self.name, tracer=tracer)

    def _build_shard(self, shard: int) -> Stabilizer:
        """Construct (or reconstruct) the inner stack for ``shard`` from
        the *current* config's shard view and wire up the node-level
        relays and runtime-registered predicate state."""
        view = self.config.shard_view(shard)
        epoch = self._shard_epoch_overrides.get(shard)
        if epoch is not None and epoch != view.shard_epoch:
            view = view.replace(shard_epoch=epoch)
        inner = Stabilizer(self.net, view, fs=self.fs, tracer=self.tracer)
        if self.fs is None:
            # The first inner stack may have created the host's
            # default filesystem; every later shard (and restarts)
            # must share it — WAL directories are per-shard already.
            self.fs = inner.fs
        inner.on_delivery(self._make_delivery_relay(shard))
        inner.on_peer_dead = self._make_peer_dead_relay(shard)
        for type_name in self._extra_types:
            inner.register_stability_type(type_name)
        for key, source in self._runtime_predicates.items():
            if key in self.config.predicates:
                inner.change_predicate(key, source)
            else:
                inner.register_predicate(key, source)
        if self._policy_args is not None:
            policy_factory, protect = self._policy_args
            policy = policy_factory() if policy_factory is not None else None
            inner.set_degradation_policy(policy, protect=protect)
        self.shards[shard] = inner
        return inner

    # ------------------------------------------------------------------ routing
    def shard_of(self, key) -> int:
        """The shard ``key`` lives on (stable across membership change)."""
        return self.shard_map.shard_of(key)

    def owner_for_key(self, key) -> str:
        """The primary owner to route a write on ``key`` to."""
        return self.shard_map.owner_for_key(key)

    def owns(self, shard: int) -> bool:
        return shard in self.shards

    def _resolve(self, key, shard: Optional[int]) -> int:
        if shard is None:
            if key is None:
                if not self.owned_shards:
                    raise StabilizerError(
                        f"node {self.name!r} owns no shards; route writes "
                        "to a shard owner (see ShardMap.owner_for_key)"
                    )
                return self.owned_shards[0]
            shard = self.shard_map.shard_of(key)
        return shard

    def _owned(self, shard: int) -> Stabilizer:
        inner = self.shards.get(shard)
        if inner is None:
            if shard in self.pending_shards:
                raise StabilizerError(
                    f"node {self.name!r} owns shard {shard} at epoch "
                    f"{self.epoch} but its state handoff has not completed; "
                    "retry after cutover"
                )
            owners = self.shard_map.owners(shard)
            raise StabilizerError(
                f"node {self.name!r} does not own shard {shard}; "
                f"route to an owner ({', '.join(owners)}; primary "
                f"{self.shard_map.primary(shard)!r})"
            )
        return inner

    # ------------------------------------------------------------------ sending
    def send(
        self, payload: Payload, meta=None, *, key=None, shard: Optional[int] = None
    ) -> int:
        """Originate one message on the resolved shard's stream.

        The shard comes from ``shard`` if given, else from hashing
        ``key``, else the lowest owned shard.  Returns the sequence
        number within that shard's stream (sequence spaces are
        per-shard; pair it with the shard for global identity).

        With an admission controller attached the call first clears its
        fail-fast gate (which may raise
        :class:`~repro.errors.AdmissionError`) — the inner stacks carry
        no controllers of their own, so the gate is charged exactly once.
        """
        if self.admission is not None:
            self.admission.preflight()
        target = self._resolve(key, shard)
        if target in self._frozen:
            raise StabilizerError(
                f"shard {target} is frozen for rebalance to epoch "
                f"{self.shard_map.epoch + 1}; new owners "
                "accept writes after cutover — retry"
            )
        return self._owned(target).send(payload, meta)

    def last_sent_seq(self, shard: Optional[int] = None) -> int:
        return self._owned(self._resolve(None, shard)).last_sent_seq()

    # ------------------------------------------------------------------ stability API
    def waitfor(
        self,
        seq: int,
        predicate_key: Optional[str] = None,
        origin: Optional[str] = None,
        timeout_s: Optional[float] = None,
        *,
        key=None,
        shard: Optional[int] = None,
    ) -> Event:
        """An event that succeeds once ``seq`` of the resolved shard's
        ``origin`` stream satisfies the predicate."""
        target = self._resolve(key, shard)
        return self._owned(target).waitfor(
            seq, predicate_key, origin=origin, timeout_s=timeout_s
        )

    def get_stability_frontier(
        self,
        predicate_key: Optional[str] = None,
        origin: Optional[str] = None,
        *,
        key=None,
        shard: Optional[int] = None,
    ) -> int:
        target = self._resolve(key, shard)
        return self._owned(target).get_stability_frontier(predicate_key, origin)

    def register_predicate(self, key: str, source: str) -> None:
        """Register ``source`` under ``key`` on every owned shard (each
        compiles it against its own owner-set context)."""
        for inner in self.shards.values():
            inner.register_predicate(key, source)
        self._runtime_predicates[key] = source

    def change_predicate(self, key: str, source: Optional[str] = None) -> None:
        for inner in self.shards.values():
            inner.change_predicate(key, source)
        if source is None:
            self._runtime_predicates.pop(key, None)
        else:
            self._runtime_predicates[key] = source

    def monitor_stability_frontier(self, predicate_key: str, fn) -> None:
        """Register ``fn(origin, frontier, old_frontier, shard)`` on
        frontier advances of ``predicate_key`` on any owned shard."""
        for shard, inner in self.shards.items():
            inner.monitor_stability_frontier(
                predicate_key,
                lambda origin, frontier, old, shard=shard: fn(
                    origin, frontier, old, shard
                ),
            )

    def register_stability_type(self, type_name: str) -> int:
        """Add an application-defined stability level on every owned
        shard; the column index is identical across shards."""
        type_ids = {
            inner.register_stability_type(type_name)
            for inner in self.shards.values()
        }
        if len(type_ids) > 1:  # pragma: no cover - defensive
            raise StabilizerError(
                f"stability type {type_name!r} landed on different columns "
                f"across shards: {sorted(type_ids)}"
            )
        if type_name not in self._extra_types:
            self._extra_types.append(type_name)
        return type_ids.pop() if type_ids else -1

    def report_stability(
        self,
        type_name: str,
        seq: int,
        origin: Optional[str] = None,
        *,
        key=None,
        shard: Optional[int] = None,
    ) -> None:
        target = self._resolve(key, shard)
        self._owned(target).report_stability(type_name, seq, origin)

    # ------------------------------------------------------------------ delivery
    def on_delivery(self, fn: ShardDeliveryFn) -> None:
        """Subscribe to remote messages on every owned shard:
        ``fn(origin, seq, payload, meta, shard)``."""
        self._delivery_handlers.append(fn)

    def _make_delivery_relay(self, shard: int):
        def relay(origin, seq, payload, meta):
            for handler in self._delivery_handlers:
                handler(origin, seq, payload, meta, shard)

        return relay

    def on_peer_dead(self, fn: ShardPeerDeadFn) -> None:
        """Subscribe to shard-scoped transport dead-peer reports:
        ``fn(peer, shard)``.  Each shard stack's endpoint reports on its
        own port, so a dead link on one shard never implicates the same
        peer in a co-owned shard whose link is healthy."""
        self._peer_dead_handlers.append(fn)

    def _make_peer_dead_relay(self, shard: int):
        def relay(peer: str, channel_name: str) -> None:
            for handler in self._peer_dead_handlers:
                handler(peer, shard)

        return relay

    # ------------------------------------------------------------------ membership
    @property
    def epoch(self) -> int:
        """The membership epoch of the shard map this node is running."""
        return self.shard_map.epoch

    def freeze_shard(self, shard: int) -> None:
        """Stop accepting local writes on ``shard`` (rebalance freeze).

        In-flight traffic keeps draining — only new ``send()`` calls are
        refused, with an error telling the caller to retry after cutover.
        """
        inner = self._owned(shard)  # must be a live owned stack
        self._frozen.add(shard)
        # The owner set is about to change: keep the send buffer until
        # the new one exists (DataPlane.reclaim_up_to).
        inner.dataplane.hold_reclaim = True

    def unfreeze_shard(self, shard: int) -> None:
        self._frozen.discard(shard)
        inner = self.shards.get(shard)
        if inner is not None:
            inner.dataplane.hold_reclaim = False

    def frozen_shards(self) -> Tuple[int, ...]:
        return tuple(sorted(self._frozen))
    def suspected_nodes(self):
        """Union of every shard detector's suspicions."""
        suspected = set()
        for inner in self.shards.values():
            suspected |= inner.suspected_nodes()
        return suspected

    def set_degradation_policy(self, policy_factory=None, protect=frozenset()):
        """Install a degradation policy on every owned shard.

        Policies bind to one Stabilizer, so each shard gets its own
        instance: the stock
        :class:`~repro.core.degradation.MaskSuspectedPolicy` by default,
        or one per call to ``policy_factory()``.  Suspicion of a node
        outside a shard's owner set is out of scope there and adjusts
        nothing (see ``PredicateAutoAdjuster.mask_node``).  Returns the
        installed policies keyed by shard.
        """
        policies = {}
        for shard, inner in self.shards.items():
            policy = policy_factory() if policy_factory is not None else None
            policies[shard] = inner.set_degradation_policy(
                policy, protect=protect
            )
        self._policy_args = (policy_factory, protect)
        return policies

    def set_admission(self, controller=None, **kwargs):
        """Attach an :class:`~repro.core.admission.AdmissionController`
        guarding this node's ingest across every owned shard (breakers
        are keyed per (peer, shard); see ``docs/overload.md``).  Returns
        the installed controller; its counters join :meth:`stats`."""
        if controller is None:
            from repro.core.admission import AdmissionController

            controller = AdmissionController(self, **kwargs)
        self.admission = controller
        return controller

    def degradation_log(self) -> List[Tuple[float, str, str, int]]:
        """Every (virtual time, transition, peer, shard) event across the
        owned shards, oldest first."""
        merged = [
            (ts, transition, peer, shard)
            for shard, inner in self.shards.items()
            for ts, transition, peer in inner.degradation_log()
        ]
        merged.sort(key=lambda entry: entry[0])
        return merged

    def apply_rebalance(self, new_config: StabilizerConfig) -> Dict[str, List[int]]:
        """The cutover step of a rebalance: adopt ``new_config``'s shard
        map (epoch bumped) in one simulator instant.

        Per shard: an *unmoved* shard keeps its running stack (old epoch
        stamps and all — fencing is per-shard equality, so unmoved owner
        sets stay mutually deliverable); a *stayer* snapshots its old
        stack, closes it, rebuilds from the new shard view and restores
        the snapshot remapped to the new owner list; a *joined* shard is
        built from the handoff blob transferred pre-cutover (or fresh, if
        every old owner is gone); a *released* shard's stack closes.

        The caller (the rebalance coordinator) must invoke this at every
        node in the same instant and trigger per-shard catch-up after all
        nodes have cut over.  Returns the shards rebuilt / released /
        kept at this node.
        """
        from repro.core.rebalance import remap_inner_snapshot
        from repro.core.recovery import restore_state, snapshot_state

        if self.name not in new_config.node_names:
            raise StabilizerError(
                f"node {self.name!r} is not in the new deployment; "
                "close it instead of cutting it over"
            )
        old_map = self.shard_map
        new_map = new_config.shard_map()
        new_owned = set(new_map.owned_shards(self.name))
        rebuilt: List[int] = []
        released: List[int] = []
        kept: List[int] = []
        old_snapshots: Dict[int, dict] = {}
        for shard in list(self.shards):
            if shard in new_owned and set(old_map.owners(shard)) == set(
                new_map.owners(shard)
            ):
                kept.append(shard)
                continue
            inner = self.shards.pop(shard)
            if shard in new_owned:
                # Stayer: capture state before teardown; the new stack
                # restores it remapped to the new owner-list row indices.
                old_snapshots[shard] = snapshot_state(inner)
            else:
                released.append(shard)
            port = inner.config.transport_port()
            inner.close()
            if shard not in new_owned:
                # Peers cut over in the same instant, but frames they put
                # on the wire *before* cutover may still be in flight to
                # the released stack's port.  A real host drops datagrams
                # to a closed socket; park the port with a silent-drop
                # handler so stragglers don't surface as unbound ports.
                # Re-gaining the shard later rebinds the live handler.
                self.net.host(self.name).bind(port, lambda packet: None)
        self.config = new_config
        self.shard_map = new_map
        self.owned_shards = tuple(sorted(new_owned))
        self._frozen.clear()
        self.pending_shards = set()
        # Restart-time epoch overrides are for resuming *pre-cutover*
        # stacks; anything rebuilt from here on runs at the new epoch.
        self._shard_epoch_overrides.clear()
        for shard in self.owned_shards:
            if shard in self.shards:
                continue
            view = self.config.shard_view(shard)
            if shard in old_snapshots:
                snap, adopt = remap_inner_snapshot(old_snapshots[shard], view)
            else:
                blob = self.handoff.take(shard, new_map.epoch)
                if blob is not None:
                    snap, adopt = remap_inner_snapshot(blob["snapshot"], view)
                else:
                    # No surviving old owner could source a transfer —
                    # the shard restarts empty (catch-up replay from
                    # co-owners still fills in whatever they buffer).
                    snap, adopt = None, {}
            inner = self._build_shard(shard)
            if snap is not None:
                restore_state(inner, snap)
            # A joiner adopts the source's receive watermarks: the state
            # transfer carried everything the source had delivered, so
            # each incoming stream resumes there, and the adopted ack is
            # *reported* (the joiner's row starts at zero everywhere —
            # monotonic control traffic would never repeat it otherwise).
            received = inner.type_id("received")
            for origin, seq in adopt.items():
                if seq > 0 and origin != self.name and origin in view.node_names:
                    inner.dataplane.restore_highest_received(origin, seq)
                    inner.strategy.grant_local(origin, received, seq)
            rebuilt.append(shard)
        return {"rebuilt": rebuilt, "released": released, "kept": kept}

    # ------------------------------------------------------------------ recovery
    def request_catchup(self, shards: Optional[Iterable[int]] = None) -> None:
        """Ask each owned shard's peers to replay what this node missed
        (all shards, or just the given ones — e.g. the stacks a cutover
        rebuilt)."""
        targets = set(shards) if shards is not None else None
        for shard, inner in self.shards.items():
            if targets is None or shard in targets:
                inner.request_catchup()

    # ------------------------------------------------------------------ introspection
    def shard_stats(self, shard: int) -> Dict[str, float]:
        return self._owned(shard).stats()

    def ack_table_cells(self) -> int:
        """Total ACK-table cells allocated at this node — the per-node
        control-state footprint partial replication bounds by owned
        shards, not by the key space or the full node count."""
        return sum(
            len(inner.tables) * inner.config.node_count() * len(inner.config.type_names())
            for inner in self.shards.values()
        )

    def stats(self) -> Dict[str, float]:
        """Counters aggregated across owned shards.

        Sums every numeric counter, except: ``frontier_lag.*`` gauges are
        kept per shard (``frontier_lag.s<shard>.<origin>.<type>``), and
        ``trace_events`` takes the max — the shards share one tracer, so
        each already reports the node-wide total.  Adds
        ``shards_owned`` / ``shard_count`` / ``ack_table_cells``.
        """
        totals: Dict[str, float] = {}
        for shard, inner in self.shards.items():
            for stat_key, value in inner.stats().items():
                if stat_key.startswith("frontier_lag."):
                    totals[f"frontier_lag.s{shard}.{stat_key[len('frontier_lag.'):]}"] = value
                elif stat_key in ("trace_events", "shard_epoch"):
                    totals[stat_key] = max(totals.get(stat_key, 0), value)
                else:
                    totals[stat_key] = totals.get(stat_key, 0) + value
        if self.admission is not None:
            totals.update(self.admission.stats())
        totals["shards_owned"] = len(self.shards)
        totals["shards_pending"] = len(self.pending_shards)
        totals["shards_frozen"] = len(self._frozen)
        totals["shard_count"] = self.shard_map.shard_count
        totals["ack_table_cells"] = self.ack_table_cells()
        totals["shard_epoch"] = self.shard_map.epoch
        return totals

    def obs_snapshot(self) -> Dict[str, object]:
        """The sharded node's full observability view: the aggregated
        ``stats()`` plus per-shard histogram summaries, each family
        prefixed ``s<shard>.`` (per-shard send→stable distributions are
        the point of sharding — summing them would hide a hot shard)."""
        histograms: Dict[str, object] = {}
        for shard, inner in sorted(self.shards.items()):
            for name, summary in inner.registry.snapshot()["histograms"].items():
                histograms[f"s{shard}.{name}"] = summary
        return {
            "metrics": self.stats(),
            "histograms": histograms,
            "node": self.name,
        }

    def blame(self, keys=None, max_sends=None):
        """Cross-shard critical-path attribution of this node's own
        sends (see :meth:`repro.core.stabilizer.Stabilizer.blame`); the
        shared ring's shard tags keep per-shard sequence spaces apart."""
        from repro.obs.critpath import BlameTable, analyze

        tracer = next(
            (s.tracer for s in self.shards.values() if s.tracer.enabled),
            None,
        )
        if tracer is None or tracer.emitted == 0:
            return BlameTable()
        return analyze(
            tracer.events(), keys=keys, max_sends=max_sends, origin=self.name
        )

    # ------------------------------------------------------------------ teardown
    def close(self) -> None:
        if self.admission is not None:
            self.admission.close()
        for inner in self.shards.values():
            inner.close()
        self.handoff.close()

    def crash(self) -> None:
        if self.admission is not None:
            self.admission.close()
        for inner in self.shards.values():
            inner.crash()
        self.handoff.close()


class ShardedCluster:
    """All :class:`ShardedStabilizer` instances of one deployment.

    The sharded sibling of
    :class:`~repro.core.cluster.StabilizerCluster`: one per-host
    filesystem shared by that host's shard stacks (WAL directories are
    per-shard inside it), one shared tracer across nodes and restarts.
    """

    def __init__(
        self,
        net: Network,
        base_config: StabilizerConfig,
        fs_factory: Optional[Callable[[str], object]] = None,
        tracer=None,
    ):
        self.net = net
        self.sim = net.sim
        self.base_config = base_config
        self.shard_map = base_config.shard_map()
        self.tracer = tracer
        self.filesystems: Dict[str, object] = {}
        self.nodes: Dict[str, ShardedStabilizer] = {}
        # Set by RebalanceCoordinator on attach; lets obs_snapshot()
        # surface the cluster-level rebalance.* metrics next to the
        # per-node views.
        self.coordinator = None
        for name in base_config.node_names:
            fs = fs_factory(name) if fs_factory is not None else None
            node = ShardedStabilizer(
                net, base_config.for_node(name), fs=fs, tracer=tracer
            )
            self.nodes[name] = node
            self.filesystems[name] = node.fs if fs is None else fs

    def restart_node(
        self, name: str, snapshot: Optional[dict] = None
    ) -> ShardedStabilizer:
        """Crash-restart ``name``: rebuild its shard stacks on the host's
        surviving filesystem, restore the (version-5) snapshot, and ask
        each shard's peers to replay what was missed.

        A version-5 snapshot taken mid-handoff may cover fewer shards
        than the node owns (a joiner whose transfers had not landed):
        the uncovered shards come back *pending*, and the rebalance
        coordinator re-drives their transfers."""
        from repro.core.recovery import restore_state

        old = self.nodes.get(name)
        if old is not None:
            old.close()
        if name in self.base_config.node_names:
            config = self.base_config.for_node(name)
        elif snapshot is not None and "config" in snapshot:
            # A joiner crashing mid-handoff: the cutover has not adopted
            # its successor deployment yet, so the cluster's base config
            # does not list it.  Rebuild under the config the snapshot
            # was taken with (the deployment it was joining); the
            # coordinator re-drives its transfers against the restart.
            config = StabilizerConfig.from_dict(snapshot["config"])
        else:
            raise StabilizerError(
                f"node {name!r} is not in the deployment and the snapshot "
                "carries no config to rebuild it from"
            )
        pending: Tuple[int, ...] = ()
        if snapshot is not None and "shards" in snapshot:
            covered = {int(shard) for shard in snapshot["shards"]}
            pending = tuple(
                shard
                for shard in config.shard_map().owned_shards(name)
                if shard not in covered
            )
        # Epoch fencing is per-shard *equality*, and an unmoved shard's
        # co-owners still run the stack built at the epoch the shard last
        # moved — which may trail the adopted config.  Resume each stack
        # at the epoch its inner snapshot was taken with (v5 snapshots
        # embed the shard-view config); for shards the snapshot does not
        # cover, match a live co-owner's running epoch.
        shard_epochs: Dict[int, int] = {}
        if snapshot is not None and "shards" in snapshot:
            for shard, inner_snapshot in snapshot["shards"].items():
                inner_config = inner_snapshot.get("config") or {}
                if "shard_epoch" in inner_config:
                    shard_epochs[int(shard)] = int(inner_config["shard_epoch"])
        for shard in config.shard_map().owned_shards(name):
            if shard in shard_epochs or shard in pending:
                continue
            for peer_name, peer in self.nodes.items():
                if peer_name == name:
                    continue
                inner = peer.shards.get(shard)
                if inner is not None:
                    shard_epochs[shard] = inner.config.shard_epoch
                    break
        node = ShardedStabilizer(
            self.net,
            config,
            fs=self.filesystems.get(name),
            tracer=self.tracer,
            pending_shards=pending,
            shard_epochs=shard_epochs,
        )
        self.nodes[name] = node
        self.filesystems[name] = node.fs
        if snapshot is not None:
            restore_state(node, snapshot)
        node.request_catchup()
        return node

    # ------------------------------------------------------------------ membership
    def adopt_config(self, base_config: StabilizerConfig) -> None:
        """Adopt a successor deployment config (post-cutover bookkeeping:
        restarts and joins build from the new map from here on)."""
        self.base_config = base_config
        self.shard_map = base_config.shard_map()

    def add_node(
        self, name: str, config: Optional[StabilizerConfig] = None
    ) -> ShardedStabilizer:
        """Create a node mid-deployment (a joiner): its stacks for the
        shards it wins stay *pending* until the rebalance coordinator
        transfers their state and cuts over.  ``config`` is the successor
        deployment config the joiner is part of (defaults to the
        cluster's current base config, which must already list it)."""
        if name in self.nodes:
            raise StabilizerError(f"node {name!r} is already in the cluster")
        self.net.recover_node(name)
        node_config = (config or self.base_config).for_node(name)
        node = ShardedStabilizer(
            self.net,
            node_config,
            fs=self.filesystems.get(name),
            tracer=self.tracer,
            pending_shards=node_config.shard_map().owned_shards(name),
        )
        self.nodes[name] = node
        self.filesystems[name] = node.fs
        return node

    def remove_node(self, name: str) -> None:
        """Drop a node after it left the deployment (its stacks close;
        the host filesystem is kept for a potential future rejoin).

        The host goes dark in the network as well: peers may still have
        acks or retransmits in flight to the departed node, and a
        powered-off host drops them — they must not surface as unbound
        ports.  ``add_node`` brings the host back up on a rejoin."""
        node = self.nodes.pop(name, None)
        if node is not None:
            node.close()
        self.net.crash_node(name)

    def obs_snapshot(self) -> Dict[str, object]:
        """One record for the snapshot stream: every node's view plus —
        when a rebalance coordinator is attached — the cluster-level
        ``rebalance.*`` metrics (migrations in flight, handoff bytes,
        retries, drain timeouts, cutover latency)."""
        record: Dict[str, object] = {
            "nodes": {
                name: node.obs_snapshot()
                for name, node in sorted(self.nodes.items())
            },
        }
        if self.coordinator is not None:
            snap = self.coordinator.metrics.snapshot()
            cluster = dict(snap["metrics"])
            for name, summary in snap["histograms"].items():
                cluster[f"{name}.p99"] = summary.get("p99", 0.0)
                cluster[f"{name}.count"] = summary.get("count", 0)
            record["cluster"] = cluster
        return record

    def __getitem__(self, name: str) -> ShardedStabilizer:
        return self.nodes[name]

    def __iter__(self) -> Iterator[ShardedStabilizer]:
        return iter(self.nodes.values())

    def __len__(self) -> int:
        return len(self.nodes)

    def close(self) -> None:
        for node in self.nodes.values():
            node.close()


def build_sharded_cluster(
    net: Network,
    local_predicates: Optional[Dict[str, str]] = None,
    **config_kwargs,
) -> ShardedCluster:
    """Build a sharded cluster over ``net`` with one shared deployment
    config; pass ``shard_count`` / ``shard_replication`` (or
    ``shard_owners``) through ``config_kwargs``."""
    config = StabilizerConfig.from_topology(
        net.topology,
        local=net.topology.node_names()[0],
        predicates=local_predicates,
        **config_kwargs,
    )
    return ShardedCluster(net, config)
