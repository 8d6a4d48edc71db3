"""Live shard rebalancing: state handoff and the epoch-fenced cutover.

ROADMAP item: dynamic membership for partial replication.  A membership
change (join, decommission, or a peer declared permanently dead) produces
a successor :class:`~repro.core.membership.ShardMap` with the epoch
bumped; the :class:`RebalancePlanner` computes the minimal per-shard
moves, and this module executes them:

1. **Freeze** — every live old owner of a moved shard stops accepting
   *local* writes on it (in-flight traffic keeps draining, so the owner
   set converges on a final watermark).
2. **Drain** — the coordinator polls the old owners until their receive
   watermarks converge per origin stream (bounded by a timeout: a
   partitioned straggler must not wedge the rebalance forever).
3. **Transfer** — one live old owner snapshots the shard's inner stack
   (the version-3 per-shard snapshot recovery already uses) and streams
   it to each joining owner over the :class:`HandoffManager`'s dedicated
   transport port.  Transfers are retried with backoff against alternate
   sources and survive either side crashing mid-flight (the blob rides in
   the version-5 node snapshot, and a restarted sender re-sends on a
   reset stream).
4. **Cutover** — in one simulator instant every surviving member adopts
   the successor config: unmoved shards keep their running stacks,
   stayers rebuild from a locally remapped snapshot, joiners rebuild from
   the transferred blob
   (:meth:`~repro.core.sharding.ShardedStabilizer.apply_rebalance`).
   From here on the new stacks stamp the new epoch into every frame, so
   anything still in flight from the old layout is *fenced* (counted and
   dropped) instead of corrupting ACK rows.
5. **Catch-up / release** — rebuilt stacks ask their co-owners to replay
   what the dual-delivery window missed (duplicates are dropped by the
   per-origin watermarks), and old owners that lost the shard release its
   state.

Failover is the same machinery: a peer declared permanently dead is
planned out with :meth:`RebalanceCoordinator.declare_dead`, which
promotes the rendezvous successors to owners and re-replicates each
affected shard from a surviving owner — restoring the replication factor
without operator involvement.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import BUILTIN_TYPES, StabilizerConfig
from repro.core.membership import RebalancePlan, RebalancePlanner, ShardMove
from repro.errors import StabilizerError
from repro.net.topology import Network
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.transport.endpoint import TransportEndpoint

#: The handoff endpoint's own network port: structurally outside every
#: shard stack's port, so a handoff channel exhausting its retries never
#: feeds a shard's failure detector (dead-peer scoping, see
#: ``ShardedStabilizer.on_peer_dead``).
HANDOFF_PORT = "transport.handoff"
HANDOFF_CHANNEL = "stab.handoff"


# ---------------------------------------------------------------------------
# snapshot remapping
# ---------------------------------------------------------------------------
def remap_inner_snapshot(
    snapshot: dict, view: StabilizerConfig, columns: Optional[int] = None
) -> Tuple[dict, Dict[str, int]]:
    """Rewrite a per-shard (version-3) snapshot for a new owner set.

    ``snapshot`` is the inner snapshot captured at an *old* owner of the
    shard; ``view`` is the successor shard view of the node restoring it;
    ``columns`` is how many stability types the restoring stack holds
    (the view's own, unless more were registered at run time).
    ACK-table row indices are positional in the owner list, so every row
    is moved to the name's index in the new list; rows of leavers drop,
    rows of joiners start at zero.  Origin streams of leavers drop with
    their rows (their keys re-route to the new owners' streams), and
    frontier/monitor values follow their origins.

    Two cases, told apart by whether the snapshot's local node *is* the
    restoring node:

    - **stayer** (same node): keeps its own row, outgoing sequence
      counter and send-buffer tail — its stream continues across the
      epoch bump.
    - **joiner** (adopting another owner's snapshot): its own row zeroes
      (it has acknowledged nothing under its own name), its stream
      starts fresh at sequence 1, and the returned *adopt* mapping gives
      the source's per-origin receive watermark — the state transfer
      carried the effects of everything delivered up to there, so the
      caller reinstates (and re-reports) those watermarks after restore.

    Returns ``(remapped_snapshot, adopt)``; ``adopt`` is empty for a
    stayer.
    """
    old_config = snapshot["config"]
    old_names: List[str] = old_config["node_names"]
    new_names: List[str] = list(view.node_names)
    source_local: str = old_config["local"]
    target_local: str = view.local
    is_stayer = source_local == target_local
    # The snapshot's rows are as wide as its source's tables: configured
    # types, then those registered at run time.  The restoring stack must
    # hold as many, or the rows would land in the wrong shape.
    width = len(snapshot["tables"][source_local][0])
    if columns is None:
        columns = len(view.type_names())
    if width != columns:
        raise StabilizerError(
            f"cannot remap snapshot with {width} stability types into a "
            f"stack with {columns}"
        )
    old_index = {name: i for i, name in enumerate(old_names)}

    tables: Dict[str, List[List[int]]] = {}
    for origin in new_names:
        old_rows = snapshot["tables"].get(origin)
        rows: List[List[int]] = []
        for name in new_names:
            if old_rows is None:
                rows.append([0] * width)  # brand-new origin stream
            elif name == target_local and not is_stayer:
                rows.append([0] * width)  # joiner's own acks start empty
            elif name in old_index:
                rows.append(list(old_rows[old_index[name]]))
            else:
                rows.append([0] * width)  # another joiner's column
        tables[origin] = rows

    frontiers = {
        origin: dict(values)
        for origin, values in snapshot.get("frontiers", {}).items()
        if origin in view.node_names
    }
    monitor_high = {
        origin: dict(values)
        for origin, values in snapshot.get("monitor_high", {}).items()
        if origin in view.node_names
    }
    if is_stayer:
        next_seq = int(snapshot["next_seq"])
        buffer_state = snapshot.get(
            "buffer", {"reclaimed_up_to": 0, "entries": []}
        )
    else:
        next_seq = 1
        buffer_state = {"reclaimed_up_to": 0, "entries": []}

    remapped = {
        "version": snapshot["version"],
        "config": view.to_dict(),
        "next_seq": next_seq,
        "tables": tables,
        "frontiers": frontiers,
        "monitor_high": monitor_high,
        "buffer": buffer_state,
        # Never carry durability claims across a handoff: only the
        # restoring node's own recovered WAL can back a persisted column.
        "durability": None,
    }

    adopt: Dict[str, int] = {}
    if not is_stayer:
        received = BUILTIN_TYPES.index("received")
        source_row = old_index[source_local]
        for origin in new_names:
            old_rows = snapshot["tables"].get(origin)
            if old_rows is None or origin == target_local:
                continue
            seq = int(old_rows[source_row][received])
            if seq > 0:
                adopt[origin] = seq
    return remapped, adopt


# ---------------------------------------------------------------------------
# state transfer
# ---------------------------------------------------------------------------
class HandoffManager:
    """Sends and receives per-shard state blobs on a dedicated port.

    One per :class:`~repro.core.sharding.ShardedStabilizer`.  The
    transfer payload is the JSON encoding of a version-3 inner snapshot;
    received blobs are parked keyed by ``(shard, epoch)`` until the
    cutover takes them (:meth:`take`), and ride inside the version-5 node
    snapshot so a receiver crash between transfer and cutover does not
    lose them.
    """

    def __init__(self, net: Network, local: str, tracer=None):
        self.net = net
        self.local = local
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.endpoint = TransportEndpoint(net, local, port=HANDOFF_PORT)
        self.endpoint.tracer = self.tracer
        self.endpoint.accept(HANDOFF_CHANNEL, self._on_blob)
        self._incoming: Dict[Tuple[int, int], dict] = {}
        self.bytes_sent = 0
        self.bytes_received = 0
        self.transfers_sent = 0
        self.transfers_received = 0
        self.closed = False

    # -- receiving ------------------------------------------------------------
    def _on_blob(self, _peer: str, payload, meta) -> None:
        _tag, shard, epoch, source = meta
        snapshot = json.loads(bytes(payload))
        self._incoming[(shard, epoch)] = {
            "epoch": epoch,
            "source": source,
            "snapshot": snapshot,
        }
        self.bytes_received += len(payload)
        self.transfers_received += 1
        if self.tracer.enabled:
            self.tracer.emit(
                self.local,
                "handoff.receive",
                shard=shard,
                epoch=epoch,
                source=source,
                bytes=len(payload),
            )

    def received(self, shard: int, epoch: int) -> bool:
        return (shard, epoch) in self._incoming

    def take(self, shard: int, epoch: int) -> Optional[dict]:
        """Pop the transferred blob for ``shard`` at ``epoch`` (or None
        if no transfer landed — the shard then restarts empty)."""
        return self._incoming.pop((shard, epoch), None)

    # -- sending --------------------------------------------------------------
    def send_shard(
        self, target: str, shard: int, epoch: int, snapshot: dict
    ) -> int:
        """Stream ``snapshot`` (a version-3 inner snapshot) to ``target``
        as the state of ``shard`` for the cutover to ``epoch``.  Returns
        the payload byte count."""
        data = json.dumps(snapshot).encode("utf-8")
        channel = self.endpoint.channel(target, HANDOFF_CHANNEL)
        channel.send(data, meta=("handoff", shard, epoch, self.local))
        self.bytes_sent += len(data)
        self.transfers_sent += 1
        if self.tracer.enabled:
            self.tracer.emit(
                self.local,
                "handoff.transfer",
                shard=shard,
                epoch=epoch,
                target=target,
                bytes=len(data),
            )
        return len(data)

    def reset_to(self, target: str) -> None:
        """Restart the send stream to ``target`` (retry path: the target
        restarted, or the previous attempt's stream gave up)."""
        channel = self.endpoint.channel(target, HANDOFF_CHANNEL)
        if channel.suspended:
            channel.revive()
        channel.reset_stream()

    # -- crash persistence ----------------------------------------------------
    def incoming_state(self) -> List[dict]:
        """Parked blobs for the version-5 snapshot envelope."""
        return [
            {
                "shard": shard,
                "epoch": epoch,
                "source": blob["source"],
                "snapshot": blob["snapshot"],
            }
            for (shard, epoch), blob in self._incoming.items()
        ]

    def restore_incoming(self, state: Sequence[dict]) -> None:
        for item in state:
            key = (int(item["shard"]), int(item["epoch"]))
            self._incoming[key] = {
                "epoch": int(item["epoch"]),
                "source": item["source"],
                "snapshot": item["snapshot"],
            }

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.endpoint.close()


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------
class _Rebalance:
    """Bookkeeping for one in-flight membership change."""

    __slots__ = (
        "kind", "subject", "plan", "new_config", "phase", "frozen_at",
        "drain_deadline", "transfers", "unsourced",
    )

    def __init__(self, kind: str, subject: str, plan: RebalancePlan,
                 new_config: StabilizerConfig):
        self.kind = kind           # "join" | "leave" | "failover"
        self.subject = subject     # the joining / leaving / dead node
        self.plan = plan
        self.new_config = new_config
        self.phase = "freeze"
        self.frozen_at = 0.0
        self.drain_deadline = 0.0
        # (shard, joiner) -> {"attempts": int, "sent_at": float, "source_pos": int}
        self.transfers: Dict[Tuple[int, str], dict] = {}
        # (shard, joiner) pairs given up on: no live source, or attempts
        # exhausted — the joiner builds the shard empty and catch-up
        # replay from co-owner buffers fills in what it can.
        self.unsourced: Set[Tuple[int, str]] = set()


class RebalanceCoordinator:
    """Drives membership changes over a
    :class:`~repro.core.sharding.ShardedCluster`; see module docstring.

    One rebalance runs at a time; further requests queue.  The
    coordinator is a polling state machine on the simulator clock
    (``poll_interval_s``) — freeze happens synchronously at request
    time, drain/transfer completion and crash recovery are observed on
    ticks, and the cutover executes within a single tick, i.e. a single
    simulator instant across every member.
    """

    def __init__(
        self,
        cluster,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        drain_timeout_s: float = 5.0,
        transfer_timeout_s: float = 10.0,
        max_transfer_attempts: int = 5,
        poll_interval_s: float = 0.05,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        # Let the cluster's obs_snapshot() surface our rebalance.*
        # metrics as its cluster-level block.
        cluster.coordinator = self
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.drain_timeout_s = drain_timeout_s
        self.transfer_timeout_s = transfer_timeout_s
        self.max_transfer_attempts = max_transfer_attempts
        self.poll_interval_s = poll_interval_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.gauge(
            "rebalance.shards_migrating", fn=self._shards_migrating
        )
        self._handoff_bytes = self.metrics.counter("rebalance.handoff_bytes")
        self._transfer_retries = self.metrics.counter(
            "rebalance.transfer_retries"
        )
        self._drain_timeouts = self.metrics.counter("rebalance.drain_timeouts")
        self._completed = self.metrics.counter("rebalance.completed")
        self._cutover_latency = self.metrics.histogram(
            "rebalance.cutover_latency_s"
        )
        self._active: Optional[_Rebalance] = None
        self._queue: List[Tuple[str, str]] = []
        self._dead: Set[str] = set()
        self._crashed: Set[str] = set()
        self._on_cutover: List[Callable[[RebalancePlan, dict], None]] = []
        self._timer = None
        self._closed = False
        #: Per-(shard, origin) receive watermark among live old owners at
        #: the cutover instant — the "no delivery lost" baseline the
        #: chaos invariant checks new owners against.
        self.last_cutover_watermarks: Dict[Tuple[int, str], int] = {}
        self.history: List[dict] = []

    # -- public API -----------------------------------------------------------
    def node_join(self, name: str) -> None:
        """``name`` (a provisioned host) joins the deployment."""
        if name in self.cluster.base_config.node_names:
            raise StabilizerError(f"node {name!r} is already a member")
        self._enqueue("join", name)

    def node_leave(self, name: str) -> None:
        """Decommission ``name`` (planned, state handed off first)."""
        if name not in self.cluster.base_config.node_names:
            raise StabilizerError(f"node {name!r} is not a member")
        self._enqueue("leave", name)

    def declare_dead(self, name: str) -> None:
        """``name`` is permanently dead (failure detectors agree): plan
        it out and re-replicate its shards from surviving owners."""
        if name in self._dead:
            return
        self._dead.add(name)
        if name not in self.cluster.base_config.node_names:
            return
        if self.tracer.enabled:
            self.tracer.emit("rebalance", "handoff.declare_dead", node=name)
        self._enqueue("failover", name)

    def node_crashed(self, name: str) -> None:
        """A member crashed (may restart): transfers touching it pause,
        and the cutover waits for it unless it is later declared dead."""
        self._crashed.add(name)

    def node_restarted(self, name: str) -> None:
        """A crashed member is back: re-freeze its moved shards and let
        pending transfers re-drive against it."""
        self._crashed.discard(name)
        active = self._active
        if active is None:
            return
        node = self.cluster.nodes.get(name)
        if node is None:
            return
        for move in active.plan.moves:
            if name in move.old and node.owns(move.shard_id):
                node.freeze_shard(move.shard_id)
        # Anything already sent toward (or from) the restarted node may
        # have died with the old incarnation — force a fresh attempt
        # clock so the retry path re-sends on a reset stream.
        for key, state in active.transfers.items():
            shard, joiner = key
            if joiner == name or state.get("source") == name:
                state["sent_at"] = None

    def on_cutover(
        self, fn: Callable[[RebalancePlan, dict], None]
    ) -> None:
        """Subscribe to cutover instants:
        ``fn(plan, {(shard, origin): watermark})``."""
        self._on_cutover.append(fn)

    @property
    def active_plan(self) -> Optional[RebalancePlan]:
        return self._active.plan if self._active is not None else None

    @property
    def phase(self) -> Optional[str]:
        return self._active.phase if self._active is not None else None

    @property
    def idle(self) -> bool:
        """True when no rebalance is active or queued."""
        return self._active is None and not self._queue

    def stats(self) -> Dict[str, float]:
        return self.metrics.collect()

    def close(self) -> None:
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- scheduling -----------------------------------------------------------
    def _enqueue(self, kind: str, subject: str) -> None:
        self._queue.append((kind, subject))
        if self._active is None:
            self._start_next()

    def _start_next(self) -> None:
        while self._queue and self._active is None:
            kind, subject = self._queue.pop(0)
            self._begin(kind, subject)
        if self._active is not None and self._timer is None:
            self._timer = self.sim.call_later(self.poll_interval_s, self._tick)

    def _begin(self, kind: str, subject: str) -> None:
        base = self.cluster.base_config
        if kind == "join":
            new_names = list(base.node_names) + [subject]
        else:
            new_names = [n for n in base.node_names if n != subject]
            if not new_names:
                raise StabilizerError("cannot remove the last member")
            if subject not in base.node_names:
                return  # superseded by an earlier change
        new_config = self._successor_config(new_names)
        planner = RebalancePlanner(self.cluster.shard_map)
        plan = planner.plan(new_config.shard_map())
        rebalance = _Rebalance(kind, subject, plan, new_config)
        self._active = rebalance
        if self.tracer.enabled:
            self.tracer.emit(
                "rebalance",
                "handoff.plan",
                kind=kind,
                subject=subject,
                **plan.summary(),
            )
        if kind == "join":
            self.cluster.add_node(subject, new_config)
        # Freeze synchronously: from this instant no live old owner
        # accepts new local writes on a moving shard.
        rebalance.frozen_at = self.sim.now
        rebalance.drain_deadline = self.sim.now + self.drain_timeout_s
        for move in plan.moves:
            for owner in move.old:
                node = self._live_node(owner)
                if node is not None and node.owns(move.shard_id):
                    node.freeze_shard(move.shard_id)
            if self.tracer.enabled:
                self.tracer.emit(
                    "rebalance",
                    "handoff.freeze",
                    shard=move.shard_id,
                    old=list(move.old),
                    new=list(move.new),
                )
            for joiner in move.joiners:
                rebalance.transfers[(move.shard_id, joiner)] = {
                    "attempts": 0,
                    "sent_at": None,
                    "source_pos": 0,
                    "source": None,
                }
        rebalance.phase = "drain"

    def _successor_config(self, new_names: List[str]) -> StabilizerConfig:
        """The successor deployment config: epoch bumped, groups re-derived
        from the physical topology, replication clamped to the new
        population."""
        base = self.cluster.base_config
        groups: Dict[str, List[str]] = {}
        for group, members in self.cluster.net.topology.groups().items():
            kept = [m for m in members if m in new_names]
            if kept:
                groups[group] = kept
        replication = base.shard_replication
        if replication is not None:
            replication = min(replication, len(new_names))
        local = base.local if base.local in new_names else new_names[0]
        return base.replace(
            node_names=list(new_names),
            groups=groups,
            local=local,
            shard_epoch=self.cluster.shard_map.epoch + 1,
            shard_replication=replication,
        )

    # -- liveness helpers -----------------------------------------------------
    def _live_node(self, name: str):
        if name in self._dead or name in self._crashed:
            return None
        return self.cluster.nodes.get(name)

    def _live_old_owners(self, move: ShardMove) -> List:
        nodes = []
        for owner in move.old:
            node = self._live_node(owner)
            if node is not None and node.owns(move.shard_id):
                nodes.append(node)
        return nodes

    def _sources_for(self, move: ShardMove) -> List[str]:
        """Transfer sources in preference order: stayers first (their
        stacks survive the cutover anyway), then departing owners."""
        ordered = list(move.stayers) + [
            n for n in move.old if n not in move.new
        ]
        return [
            n for n in ordered
            if self._live_node(n) is not None
            and self.cluster.nodes[n].owns(move.shard_id)
        ]

    def _shards_migrating(self) -> int:
        active = self._active
        if active is None or active.phase in ("done",):
            return 0
        return len(active.plan.moves)

    # -- the state machine ----------------------------------------------------
    def _tick(self) -> None:
        self._timer = None
        if self._closed:
            return
        active = self._active
        if active is not None:
            if active.phase == "drain":
                self._tick_drain(active)
            if active.phase == "transfer":
                self._tick_transfer(active)
            if active.phase == "cutover":
                self._try_cutover(active)
        if self._active is not None:
            self._timer = self.sim.call_later(self.poll_interval_s, self._tick)
        elif self._queue:
            self._start_next()

    def _tick_drain(self, active: _Rebalance) -> None:
        timed_out = self.sim.now >= active.drain_deadline
        if not timed_out and not self._drained(active):
            return
        if timed_out and not self._drained(active):
            self._drain_timeouts.inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    "rebalance", "handoff.drain_timeout",
                    epoch=active.plan.new_epoch,
                )
        active.phase = "transfer"

    def _drained(self, active: _Rebalance) -> bool:
        """Every live old owner of every moved shard agrees on every
        origin stream's watermark (what was sent has been received)."""
        for move in active.plan.moves:
            owners = self._live_old_owners(move)
            for origin in move.old:
                origin_node = self._live_node(origin)
                if origin_node is not None and origin_node.owns(move.shard_id):
                    target = (
                        origin_node.shards[move.shard_id].dataplane.next_seq - 1
                    )
                else:
                    target = max(
                        (
                            node.shards[move.shard_id].dataplane
                            .highest_received(origin)
                            for node in owners
                            if node.name != origin
                        ),
                        default=0,
                    )
                for node in owners:
                    if node.name == origin:
                        continue
                    received = node.shards[move.shard_id].dataplane
                    if received.highest_received(origin) < target:
                        return False
        return True

    def _tick_transfer(self, active: _Rebalance) -> None:
        from repro.core.recovery import snapshot_state

        epoch = active.plan.new_epoch
        all_settled = True
        for (shard, joiner), state in active.transfers.items():
            if (shard, joiner) in active.unsourced:
                continue
            target = self._live_node(joiner)
            if target is None:
                all_settled = False  # crashed joiner: wait (or declare dead)
                if joiner in self._dead:
                    active.unsourced.add((shard, joiner))
                    all_settled = True
                continue
            if target.handoff.received(shard, epoch):
                continue
            all_settled = False
            move = next(
                m for m in active.plan.moves if m.shard_id == shard
            )
            sources = self._sources_for(move)
            if not sources:
                if all(
                    owner in self._dead for owner in move.old
                ):
                    # Every possible source is permanently gone: the
                    # shard restarts empty at the joiner.  Loudly.
                    active.unsourced.add((shard, joiner))
                    if self.tracer.enabled:
                        self.tracer.emit(
                            "rebalance", "handoff.unsourced",
                            shard=shard, joiner=joiner,
                        )
                continue  # sources crashed but may come back
            if state["sent_at"] is not None:
                if self.sim.now - state["sent_at"] < self.transfer_timeout_s:
                    continue  # in flight, give it time
                # Timed out: retry against the next source on a reset
                # stream (the previous stream may be suspended or talking
                # to a dead incarnation of the joiner).
                self._transfer_retries.inc()
                state["source_pos"] += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        "rebalance", "handoff.retry",
                        shard=shard, joiner=joiner,
                        attempts=state["attempts"],
                    )
            if state["attempts"] >= self.max_transfer_attempts:
                active.unsourced.add((shard, joiner))
                if self.tracer.enabled:
                    self.tracer.emit(
                        "rebalance", "handoff.gave_up",
                        shard=shard, joiner=joiner,
                    )
                continue
            source_name = sources[state["source_pos"] % len(sources)]
            source = self.cluster.nodes[source_name]
            if state["attempts"] > 0:
                source.handoff.reset_to(joiner)
            size = source.handoff.send_shard(
                joiner, shard, epoch,
                snapshot_state(source.shards[shard]),
            )
            self._handoff_bytes.inc(size)
            state["attempts"] += 1
            state["sent_at"] = self.sim.now
            state["source"] = source_name
        if all_settled:
            active.phase = "cutover"

    def _try_cutover(self, active: _Rebalance) -> None:
        # Every surviving member of the successor deployment must be up:
        # the cutover is a single-instant, cluster-wide config swap.
        for name in active.new_config.node_names:
            if name in self._dead:
                continue
            if name in self._crashed or name not in self.cluster.nodes:
                return
        self._cutover(active)

    def _cutover(self, active: _Rebalance) -> None:
        new_config = active.new_config
        plan = active.plan
        # Invariant baseline: the highest receive watermark any live old
        # owner holds per (moved shard, surviving origin).  New owners
        # must come out of the cutover at or above these.
        watermarks: Dict[Tuple[int, str], int] = {}
        for move in plan.moves:
            owners = self._live_old_owners(move)
            for origin in move.old:
                if origin not in move.new and origin not in new_config.node_names:
                    continue  # stream leaves the deployment with its origin
                best = 0
                for node in owners:
                    dataplane = node.shards[move.shard_id].dataplane
                    if node.name == origin:
                        best = max(best, dataplane.next_seq - 1)
                    else:
                        best = max(best, dataplane.highest_received(origin))
                watermarks[(move.shard_id, origin)] = best
        self.last_cutover_watermarks = watermarks
        # Leavers first: their old stacks must stop emitting before the
        # survivors rebuild on the same ports.
        for name in list(self.cluster.nodes):
            if name not in new_config.node_names:
                self.cluster.remove_node(name)
        rebuilt_by_node: Dict[str, List[int]] = {}
        for name in new_config.node_names:
            node = self.cluster.nodes.get(name)
            if node is None:
                continue  # declared dead and already gone
            result = node.apply_rebalance(new_config.for_node(name))
            rebuilt_by_node[name] = result["rebuilt"]
        self.cluster.adopt_config(new_config)
        latency = self.sim.now - active.frozen_at
        self._cutover_latency.observe(latency)
        if self.tracer.enabled:
            self.tracer.emit(
                "rebalance",
                "handoff.cutover",
                epoch=plan.new_epoch,
                latency_s=latency,
                shards=len(plan.moves),
            )
        for fn in self._on_cutover:
            fn(plan, dict(watermarks))
        # Dual-delivery window: rebuilt stacks ask co-owners to replay
        # what the freeze-to-cutover gap may have left behind; per-origin
        # watermarks drop whatever arrives twice.
        for name, rebuilt in rebuilt_by_node.items():
            if rebuilt:
                self.cluster.nodes[name].request_catchup(rebuilt)
        if self.tracer.enabled:
            for move in plan.moves:
                self.tracer.emit(
                    "rebalance",
                    "handoff.release",
                    shard=move.shard_id,
                    leavers=list(move.leavers),
                )
        self._completed.inc()
        self.history.append(
            {**plan.summary(), "kind": active.kind, "subject": active.subject,
             "latency_s": latency, "unsourced": len(active.unsourced)}
        )
        self._active = None
        active.phase = "done"
