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

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.cluster import StabilizerCluster
from repro.core.config import StabilizerConfig
from repro.core.rebalance import HandoffManager, remap_inner_snapshot
from repro.core.recovery import restore_state, snapshot_state
from repro.core.stabilizer import Stabilizer
from repro.errors import StabilizerError
from repro.net.topology import Network
from repro.obs.catalogue import merge
from repro.sim.events import Event
from repro.transport.messages import Payload

# fn(origin, seq, payload, meta, shard)
ShardDeliveryFn = Callable[[str, int, Payload, object, int], None]
# fn(peer, shard) — a transport dead-peer report re-scoped to the shard
# stack whose endpoint produced it.
ShardPeerDeadFn = Callable[[str, int], None]

# The node interface: every public method or property of ``Stabilizer``,
# by how a sharded node answers it (table in docs/sharding.md, held to
# both classes by tests/core/test_import_lint.py).
#: One stack, picked by ``key=`` / ``shard=`` (see ``stack``).
ROUTED = (
    "send", "last_sent_seq", "waitfor", "get_stability_frontier",
    "report_stability",
)
#: Every live stack now, and — through the registration log — every stack
#: built later.
EVERY_STACK = (
    "register_predicate", "change_predicate", "register_stability_type",
    "monitor_stability_frontier", "on_delivery", "on_peer_dead",
    "set_degradation_policy",
)
#: One answer for the node as a whole, drawn from every live stack.
MERGED = (
    "stats", "obs_snapshot", "suspected_nodes", "degradation_log", "blame",
    "stacks", "set_admission",
)
#: Fanned out to every live stack, not remembered.
LIFECYCLE = ("close", "crash", "request_catchup")
#: Not on the sharded node: call them on ``node.stack(key=, shard=)``.
STACK_ONLY = (
    ("on_backpressure", "a callback about one send buffer"),
    ("backpressure_engaged", "one send buffer's state"),
    ("waitfor_capacity", "waits on one send buffer"),
    ("delivery_watermark", "a position in one shard's sequence space"),
    ("type_id", "the same column on every stack: ask any one"),
    ("active_predicate_key", "a degradation policy may move it per stack"),
    ("attach_alerter", "an alerter binds to one stack's latency samples"),
)

# The registration log's kinds, in replay order — each may name only what
# an earlier kind defines: a predicate source names stability types, a
# policy or subscription names predicate keys, the active key is one.
_REPLAY_ORDER = ("type", "predicate", "policy", "subscription", "active")


def _definition(key: str, source: str):
    """The replayed form of a predicate definition.  A stack built later
    already holds the config-time keys, so there it is register-or-change;
    the live call stays as strict as the caller made it."""

    def define(shard: int, inner: Stabilizer) -> None:
        if key in inner.engine.predicate_keys():
            inner.change_predicate(key, source)
        else:
            inner.register_predicate(key, source)

    return define


class ShardedStabilizer:
    """One node of a partially replicated deployment; see module docstring.

    ``config`` is the *global* deployment config carrying ``shard_count``
    and ``shard_replication`` (or an explicit ``shard_owners`` mapping).
    The node answers the ``Stabilizer`` interface in the five ways the
    module's tuples name.  Routed calls resolve their shard through the
    deployment's :class:`~repro.core.membership.ShardMap` and raise
    :class:`~repro.errors.StabilizerError` naming the owners to route to
    when this node does not own it (:meth:`stack` is that routing handed
    out).  Every-stack calls are kept in one registration log that
    :meth:`_build_shard` replays, so a stack built at a rebalance cutover
    carries every predicate, stability type, policy, monitor and delivery
    handler ever registered on the node.
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
        # The registration log: kind -> slot -> apply(shard, inner), kinds
        # in replay order, slots in call order.  Everything _every_stack
        # has applied is here, and replaying it is all that configures a
        # new stack (config-time predicates ride in on the shard view).
        # A keyed slot *redefines*, so the log stays bounded under
        # toggling (a kind that holds one thing is its own slot).
        self._log: Dict[str, Dict[object, Callable[[int, Stabilizer], object]]] = {
            kind: {} for kind in _REPLAY_ORDER
        }
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
        the *current* config's shard view and configure it by replaying
        the registration log.  State, if any, is restored by the caller
        afterwards: a replayed monitor must already be listening when
        ``restore_state`` raises its high-water marks and re-evaluates."""
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
        for entries in self._log.values():
            for apply in entries.values():
                apply(shard, inner)
        self.shards[shard] = inner
        return inner

    def _every_stack(self, kind, slot, apply, replay=None) -> Dict[int, object]:
        """The one way a call reaches every stack: run ``apply(shard,
        inner)`` on each live one, then record it (or ``replay``, where a
        later stack needs another form) under ``kind`` for those built
        after this call — in ``slot``, or appended when that is ``None``.
        An ``apply`` that raises records nothing."""
        results = {
            shard: apply(shard, inner) for shard, inner in self.shards.items()
        }
        self._log[kind][object() if slot is None else slot] = replay or apply
        return results

    # ------------------------------------------------------------------ routing
    def shard_of(self, key) -> int:
        """The shard ``key`` lives on (stable across membership change)."""
        return self.shard_map.shard_of(key)

    def owner_for_key(self, key) -> str:
        """The primary owner to route a write on ``key`` to."""
        return self.shard_map.owner_for_key(key)

    def owns(self, shard: int) -> bool:
        return shard in self.shards

    def stacks(self) -> Dict[int, Stabilizer]:
        """This node as its per-shard stacks: the live ``shards`` mapping
        (see :meth:`repro.core.stabilizer.Stabilizer.stacks`)."""
        return self.shards

    def stack(self, key=None, shard: Optional[int] = None) -> Stabilizer:
        """The live stack every routed call goes to (and how the
        ``STACK_ONLY`` methods are reached): ``shard``'s if given, else
        the one ``key`` hashes to, else the lowest owned shard's."""
        if shard is None:
            if key is not None:
                shard = self.shard_map.shard_of(key)
            elif self.owned_shards:
                shard = self.owned_shards[0]
            else:
                raise StabilizerError(
                    f"node {self.name!r} owns no shards; route writes "
                    "to a shard owner (see ShardMap.owner_for_key)"
                )
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
        inner = self.stack(key, shard)
        if inner.config.shard_id in self._frozen:
            raise StabilizerError(
                f"shard {inner.config.shard_id} is frozen for rebalance to "
                f"epoch {self.shard_map.epoch + 1}; new owners "
                "accept writes after cutover — retry"
            )
        return inner.send(payload, meta)

    def last_sent_seq(self, shard: Optional[int] = None) -> int:
        return self.stack(shard=shard).last_sent_seq()

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
        return self.stack(key, shard).waitfor(
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
        return self.stack(key, shard).get_stability_frontier(predicate_key, origin)

    def register_predicate(self, key: str, source: str) -> None:
        """Register ``source`` under ``key`` on every owned shard (each
        compiles it against its own owner-set context)."""
        self._every_stack(
            "predicate",
            key,
            lambda shard, inner: inner.register_predicate(key, source),
            replay=_definition(key, source),
        )

    def change_predicate(self, key: str, source: Optional[str] = None) -> None:
        """Switch the active predicate to ``key`` on every owned shard,
        redefining it first when ``source`` is given."""
        def activate(shard: int, inner: Stabilizer) -> None:
            inner.change_predicate(key)

        if source is None:
            self._every_stack("active", "active", activate)
            return
        self._every_stack(
            "predicate",
            key,
            lambda shard, inner: inner.change_predicate(key, source),
            replay=_definition(key, source),
        )
        self._log["active"]["active"] = activate  # a redefinition activates too

    def monitor_stability_frontier(self, predicate_key: str, fn) -> None:
        """Register ``fn(origin, frontier, old_frontier, shard)`` on
        frontier advances of ``predicate_key`` on any owned shard.  On a
        stack built later it resumes above what the old stack (a rebuilt
        shard) or the transfer's source (a joined one) had reported."""
        self._every_stack(
            "subscription",
            None,
            lambda shard, inner: inner.monitor_stability_frontier(
                predicate_key,
                lambda origin, frontier, old: fn(origin, frontier, old, shard),
            ),
        )

    def register_stability_type(self, type_name: str) -> int:
        """Add an application-defined stability level on every owned
        shard; the column index is identical across shards (every stack
        takes the same registrations in the same order)."""
        type_ids = self._every_stack(
            "type",
            type_name,
            lambda shard, inner: inner.register_stability_type(type_name),
        )
        return next(iter(type_ids.values()), -1)

    def report_stability(
        self,
        type_name: str,
        seq: int,
        origin: Optional[str] = None,
        *,
        key=None,
        shard: Optional[int] = None,
    ) -> None:
        self.stack(key, shard).report_stability(type_name, seq, origin)

    # ------------------------------------------------------------------ delivery
    def on_delivery(self, fn: ShardDeliveryFn) -> None:
        """Subscribe to remote messages on every owned shard:
        ``fn(origin, seq, payload, meta, shard)``."""
        self._every_stack(
            "subscription",
            None,
            lambda shard, inner: inner.on_delivery(
                lambda origin, seq, payload, meta: fn(
                    origin, seq, payload, meta, shard
                )
            ),
        )

    def on_peer_dead(self, fn: ShardPeerDeadFn) -> None:
        """Subscribe to shard-scoped transport dead-peer reports:
        ``fn(peer, shard)``.  Each shard stack's endpoint reports on its
        own port, so a dead link on one shard never implicates the same
        peer in a co-owned shard whose link is healthy."""
        self._every_stack(
            "subscription", None, lambda shard, inner: inner.on_peer_dead(fn)
        )

    # ------------------------------------------------------------------ membership
    @property
    def epoch(self) -> int:
        """The membership epoch of the shard map this node is running."""
        return self.shard_map.epoch

    def freeze_shard(self, shard: int) -> None:
        """Stop accepting local writes on ``shard`` (rebalance freeze).

        In-flight traffic keeps draining — only new ``send()`` calls are
        refused, with an error telling the caller to retry after cutover;
        the cutover itself lifts the freeze.
        """
        inner = self.stack(shard=shard)  # must be a live owned stack
        self._frozen.add(shard)
        # The owner set is about to change: keep the send buffer until
        # the new one exists (DataPlane.reclaim_up_to).
        inner.dataplane.hold_reclaim = True

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
        return self._every_stack(
            "policy",
            "policy",
            lambda shard, inner: inner.set_degradation_policy(
                policy_factory() if policy_factory is not None else None,
                protect=protect,
            ),
        )

    # One definition for both node kinds: the controller decomposes either
    # through stacks(), with breakers per (peer, shard) (docs/overload.md).
    set_admission = Stabilizer.set_admission

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
            # Frames peers put on the wire before their cutover may still
            # be in flight to this stack's port: the closed port drops them.
            inner.close()
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
            source = old_snapshots.get(shard)
            if source is None:
                blob = self.handoff.take(shard, new_map.epoch)
                source = blob["snapshot"] if blob is not None else None
            # With no surviving old owner to source a transfer the shard
            # restarts empty (catch-up replay from co-owners still fills
            # in whatever they buffer).
            columns = len(view.type_names()) + len(self._log["type"])
            snap, adopt = (
                remap_inner_snapshot(source, view, columns) if source else (None, {})
            )
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
        return self.stack(shard=shard).stats()

    def ack_table_cells(self) -> int:
        """Total ACK-table cells allocated at this node — the per-node
        control-state footprint partial replication bounds by owned
        shards, not by the key space or the full node count."""
        return sum(
            len(inner.tables) * inner.config.node_count() * len(inner.config.type_names())
            for inner in self.shards.values()
        )

    def stats(self) -> Dict[str, float]:
        """The owned shards' ``stats()`` merged by each metric's declared
        rule (:mod:`repro.obs.catalogue`): counters and additive gauges
        sum, high-water marks and levels take the max, and what only
        means something per stack — ``frontier_lag.*``,
        ``dataplane.delivery_watermark`` — is kept per shard
        (``frontier_lag.s<shard>.<origin>.<type>``).  ``admission.*`` and
        ``suspected_nodes`` are the node's own answers, and
        ``shards_owned`` / ``shard_count`` / ``ack_table_cells`` are added.
        """
        totals = merge(
            [inner.stats() for inner in self.shards.values()],
            each_prefix=[f"s{shard}" for shard in self.shards],
        )
        if self.admission is not None:
            totals.update(self.admission.stats())
        totals["suspected_nodes"] = len(self.suspected_nodes())
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
        self._stop(Stabilizer.close)

    def crash(self) -> None:
        self._stop(Stabilizer.crash)

    def _stop(self, how) -> None:
        if self.admission is not None:
            self.admission.close()
        for inner in self.shards.values():
            how(inner)
        self.handoff.close()


class ShardedCluster(StabilizerCluster):
    """All :class:`ShardedStabilizer` instances of one deployment.

    :class:`~repro.core.cluster.StabilizerCluster` with
    :class:`ShardedStabilizer` nodes — one per-host filesystem shared by
    that host's shard stacks (WAL directories are per-shard inside it) —
    plus what only a sharded deployment has: the shard map, membership
    change (``add_node`` / ``remove_node`` / ``adopt_config``) and a
    restart that resumes each shard at its running epoch.
    """

    node_class = ShardedStabilizer

    def __init__(
        self,
        net: Network,
        base_config: StabilizerConfig,
        fs_factory: Optional[Callable[[str], object]] = None,
        tracer=None,
    ):
        self.shard_map = base_config.shard_map()
        # Set by RebalanceCoordinator on attach; lets obs_snapshot()
        # surface the cluster-level rebalance.* metrics next to the
        # per-node views.
        self.coordinator = None
        super().__init__(net, base_config, fs_factory, tracer)

    def _restart_args(self, name: str, snapshot: Optional[dict]) -> dict:
        """How :meth:`restart_node` rebuilds ``name`` for a (version-5)
        snapshot: under which config, with which shards pending, and each
        stack at which epoch.

        A version-5 snapshot taken mid-handoff may cover fewer shards
        than the node owns (a joiner whose transfers had not landed):
        the uncovered shards come back *pending*, and the rebalance
        coordinator re-drives their transfers."""
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
        owned = config.shard_map().owned_shards(name)
        pending: Tuple[int, ...] = ()
        # Epoch fencing is per-shard *equality*, and an unmoved shard's
        # co-owners still run the stack built at the epoch the shard last
        # moved — which may trail the adopted config.  Resume each stack
        # at the epoch its inner snapshot was taken with (v5 snapshots
        # embed the shard-view config); for shards the snapshot does not
        # cover, match a live co-owner's running epoch.
        shard_epochs: Dict[int, int] = {}
        if snapshot is not None and "shards" in snapshot:
            covered = {int(shard) for shard in snapshot["shards"]}
            pending = tuple(shard for shard in owned if shard not in covered)
            for shard, inner_snapshot in snapshot["shards"].items():
                inner_config = inner_snapshot.get("config") or {}
                if "shard_epoch" in inner_config:
                    shard_epochs[int(shard)] = int(inner_config["shard_epoch"])
        for shard in owned:
            if shard in shard_epochs or shard in pending:
                continue
            for peer_name, peer in self.nodes.items():
                if peer_name != name and shard in peer.shards:
                    shard_epochs[shard] = peer.shards[shard].config.shard_epoch
                    break
        return {
            "config": config,
            "pending_shards": pending,
            "shard_epochs": shard_epochs,
        }

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
        return self._spawn(
            name,
            node_config,
            pending_shards=node_config.shard_map().owned_shards(name),
        )

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
        retries, drain timeouts)."""
        record: Dict[str, object] = {
            "nodes": {
                name: node.obs_snapshot()
                for name, node in sorted(self.nodes.items())
            },
        }
        if self.coordinator is not None:
            record["cluster"] = self.coordinator.stats()
        return record


def build_sharded_cluster(
    net: Network,
    local_predicates: Optional[Dict[str, str]] = None,
    **config_kwargs,
) -> ShardedCluster:
    """Build a sharded cluster over ``net`` with one shared deployment
    config; pass ``shard_count`` / ``shard_replication`` (or
    ``shard_owners``) through ``config_kwargs``."""
    return ShardedCluster.from_topology(net, local_predicates, **config_kwargs)
