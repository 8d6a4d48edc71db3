"""The rebalance scenario: membership churn under load.

The sharded scenario of :class:`~repro.chaos.harness.ChaosHarness`: a
:class:`~repro.core.sharding.ShardedCluster` under continuous per-shard
traffic, driven by a seeded schedule that — on top of the classic
crash / restart / partition / heal repertoire — exercises the membership
events :func:`~repro.chaos.schedule.generate_schedule` produces when
given spares and a leave budget:

- ``node_join``: a provisioned spare host enters via
  :meth:`~repro.core.rebalance.RebalanceCoordinator.node_join` — freeze,
  drain, state transfer, epoch-bumping cutover, catch-up;
- ``node_leave``: a member decommissions via ``node_leave`` — its shards
  hand off to the successors HRW promotes before it goes;
- ``crash`` of any participant *during* an in-flight handoff: the
  coordinator pauses transfers touching the victim, the cutover waits,
  and the restart (from the crash-instant version-5 snapshot, which
  carries frozen shards and parked transfer blobs) re-drives the
  handoff.

The invariant checker verifies everything the classic scenario verifies
plus the rebalance-specific properties: no delivery lost across a
cutover (10), replication factor restored at quiescence (11), and
exactly one owner set per (shard, epoch) (12).

Durability is deliberately **off** here: WAL recovery rebuilds a
contiguous-from-1 persistence watermark, while a rebalance joiner adopts
a mid-stream receive watermark whose prefix it never saw — the two
models compose only once per-shard WAL state is handed off too, which
the transfer protocol does not attempt (the blob carries watermarks and
buffers, not logs).  Durability chaos is the classic scenario's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional

from repro.chaos.harness import ChaosHarness, Scenario, ScenarioConfig, run_chaos
from repro.chaos.schedule import ChaosEvent
from repro.core.rebalance import RebalanceCoordinator
from repro.core.sharding import ShardedCluster
from repro.errors import StabilizerError
from repro.net.tc import NetemSpec
from repro.transport.messages import SyntheticPayload

#: Per-shard predicate keys: strict (every owner) and relaxed (any owner).
SHARD_STRICT_KEY = "shard_all"
SHARD_RELAXED_KEY = "shard_any"

REBALANCE_PREDICATES = {
    SHARD_STRICT_KEY: "MIN($SHARDWNODES - $MYWNODE)",
    SHARD_RELAXED_KEY: "MAX($SHARDWNODES - $MYWNODE)",
}

SPARES = 1  # provisioned hosts the schedule may join
MAX_LEAVES = 1
MIN_GAP_S = 0.8  # shortest pause between two events (generator default: 0.5)
SHARD_COUNT = 16
REPLICATION = 2
PAYLOAD_BYTES = 512
WAITER_EVERY = 5  # every n-th send of a (node, shard) stream gets a waiter
# Coordinator patience, shorter than its defaults: a drain or transfer
# held up by a crash or partition times out and retries within the run.
DRAIN_TIMEOUT_S = 2.0
TRANSFER_TIMEOUT_S = 2.0
MAX_TRANSFER_ATTEMPTS = 8


class RebalanceScenario(Scenario):
    """See module docstring."""

    name = "rebalance"

    def __init__(self, harness: ChaosHarness):
        super().__init__(harness)
        self._frozen_rejections = 0
        self._rebalance_slices = 0
        # plan epoch -> the waiters put on shards the active plan does
        # not move, while its handoff was in flight.
        self._unmoved_waiters: Dict[int, list] = {}

    def schedule_budgets(self) -> dict:
        return {
            "min_gap": MIN_GAP_S,
            "spare_nodes": self.harness.spares,
            "max_leaves": MAX_LEAVES,
            "min_members": max(2, REPLICATION),
        }

    def build_cluster(self) -> ShardedCluster:
        harness = self.harness
        base = harness.stabilizer_config(
            predicates=dict(REBALANCE_PREDICATES),
            shard_count=SHARD_COUNT,
            shard_replication=REPLICATION,
            durability=False,  # see module docstring
        )
        self.cluster = ShardedCluster(harness.net, base, tracer=harness.tracer)
        self.coordinator = RebalanceCoordinator(
            self.cluster,
            tracer=harness.tracer,
            drain_timeout_s=DRAIN_TIMEOUT_S,
            transfer_timeout_s=TRANSFER_TIMEOUT_S,
            max_transfer_attempts=MAX_TRANSFER_ATTEMPTS,
        )
        self.coordinator.on_cutover(self._handle_cutover)
        self.checker.note_owner_map(self.cluster.shard_map)
        return self.cluster

    def arm_node(self, node) -> None:
        # Monitors only: this scenario never installed a degradation
        # policy, and its seeds are pinned to that.
        self.checker.attach(node)

    def _handle_cutover(self, plan, watermarks) -> None:
        """Runs synchronously inside the cutover instant: record the
        invariant-10/12 baselines, re-seed table history for the owners
        whose rows were just remapped, and put monitors on the rebuilt
        stacks (moved shards only — untouched stacks keep theirs)."""
        self.checker.note_cutover(plan, watermarks)
        moved = {move.shard_id for move in plan.moves}
        for name in {name for move in plan.moves for name in move.new}:
            self.checker.forget_node(name)
        for node in self.cluster:
            self.checker.attach(node, shards=moved)

    # -- traffic -----------------------------------------------------------------
    def send(self, name: str) -> None:
        node = self.cluster.nodes.get(name)
        if node is None:
            return  # a spare not yet joined, or a member that left
        frozen = node.frozen_shards()
        shards = [shard for shard in node.shards if shard not in frozen]
        if not shards:
            return  # a joiner whose stacks are all pending transfer
        rng = self.harness.rng
        shard = shards[rng.randrange(len(shards))]
        size = rng.randrange(64, PAYLOAD_BYTES)
        try:
            seq = node.send(SyntheticPayload(size), shard=shard)
        except StabilizerError:
            # Frozen between the pick and the send (handoff raced the
            # tick): the designed routed rejection, not a failure.
            self._frozen_rejections += 1
            return
        self.checker.note_sent(name, seq, shard=shard)
        if seq % WAITER_EVERY == 0:
            event = self.harness.guard(node, seq, SHARD_STRICT_KEY, shard=shard)
            plan = self.coordinator.active_plan
            if plan is not None and shard not in plan.moved_shards():
                self._unmoved_waiters.setdefault(plan.new_epoch, []).append(event)

    # -- membership events and crash/restart extras --------------------------------
    def handlers(self) -> Dict[str, Callable[..., None]]:
        # When the coordinator is idle a joiner exists at once (all
        # stacks pending, so attaching would register nothing yet — the
        # cutover hook covers its built stacks later).
        return {
            "node_join": self.coordinator.node_join,
            "node_leave": self.coordinator.node_leave,
            # After the shared step — also for a spare not yet built.
            "crash": self.coordinator.node_crashed,
            "restart": self.coordinator.node_restarted,
        }

    def crash_node(self, node) -> None:
        # The crash-instant v5 snapshot carries frozen shards and parked
        # handoff blobs — the handoff resumes from it.
        node.crash()
        # The restored tables may trail the last live sample; cell
        # monotonicity is re-seeded at the first post-restart sample.
        self.checker.forget_node(node.name)

    # -- checks --------------------------------------------------------------------
    def after_traffic(self) -> None:
        # Let any still-active or queued rebalance finish before judging
        # the end state: the replication invariant is about quiescence.
        self._rebalance_slices = self.harness.settle(lambda: self.coordinator.idle)

    def final_checks(self) -> None:
        # check_delivery already covered invariant 10.
        self.checker.check_replication(self.cluster)  # invariant 11

    def report_extras(self, elapsed_s: float) -> dict:
        history = list(self.coordinator.history)
        return {
            "members_initial": list(self.harness.node_names),
            "spares": list(self.harness.spares),
            "members_final": sorted(self.cluster.nodes),
            "shard_count": SHARD_COUNT,
            "replication": REPLICATION,
            "epoch_final": self.cluster.shard_map.epoch,
            "rebalance_slices": self._rebalance_slices,
            "rebalances": history,
            "cutovers_checked": self.checker.cutovers_checked,
            "unsourced_shards": sum(h["unsourced"] for h in history),
            "frozen_rejections": self._frozen_rejections,
            # [plan epoch, waiters guarded mid-handoff, of them released]
            "unmoved_waiters": [
                [epoch, len(events), sum(event.ok for event in events)]
                for epoch, events in sorted(self._unmoved_waiters.items())
            ],
            "rebalance_stats": self.coordinator.stats(),
            **self.harness.stream_report(elapsed_s),
        }

    def close(self) -> None:
        self.coordinator.close()


@dataclass
class RebalanceChaosConfig(ScenarioConfig):
    """Knobs for one rebalance-chaos run: a 2-AZ / 4-member cluster with
    one provisioned spare, 16 shards at replication 2, one join and up
    to one leave mixed into the fault schedule."""

    events: int = 8
    azs: ClassVar[int] = 2
    spare_hosts: ClassVar[int] = SPARES
    link: ClassVar[NetemSpec] = NetemSpec(latency_ms=5, rate_mbit=100)
    scenario: ClassVar[type] = RebalanceScenario


def run_rebalance_chaos(
    config: Optional[RebalanceChaosConfig] = None,
    schedule: Optional[List[ChaosEvent]] = None,
) -> dict:
    """One rebalance run: build the harness, run it, close it, report."""
    return run_chaos(config or RebalanceChaosConfig(), schedule)
