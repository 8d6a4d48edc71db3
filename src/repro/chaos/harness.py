"""One chaos harness, three scenarios.

A :class:`ChaosHarness` run is a full experiment — a cluster under
traffic, faults, and invariants — and what the experiments share lives
here exactly once:

1. build an AZ topology — ``azs`` x ``nodes_per_az`` members plus
   ``spare_hosts`` non-members, every pair over one ``link``, all four
   class attributes of the config — the simulator and network, one
   cluster-wide flight recorder, and an
   :class:`~repro.chaos.invariants.InvariantChecker` wired to dump that
   recorder on the first violation;
2. generate the seeded fault schedule
   (:func:`repro.chaos.schedule.generate_schedule`) — or take a
   handcrafted one, which pins down an interleaving (a crash timed inside
   a handoff window) that seeded randomness only sometimes produces —
   and drive it through a ``kind -> handler`` table:
   *crash* snapshots the victim at the crash instant (the integrated
   system's persistence, Section III-E), crashes it and downs its host;
   *restart* brings the host back, rebuilds the node from the snapshot
   via the cluster's ``restart_node`` (which triggers peer replay
   catch-up), re-arms it and re-checks its durability claims;
   *partition*/*heal* cut and restore AZ links;
3. run steady, staggered traffic from every live host, guarding a sample
   of sends with release-verified waiters;
4. after the schedule closes, settle in bounded slices until the
   scenario's quiescence predicate holds, then run the final checks.

What differs is a :class:`Scenario`, picked by the config class handed
to the harness: :class:`ClassicScenario` here (durability, disk faults,
checkpoints), :class:`~repro.chaos.overload.OverloadScenario` and
:class:`~repro.chaos.rebalance.RebalanceScenario`.

The run is deterministic per seed: schedules, event interleavings and
final frontiers reproduce exactly.  :func:`run_chaos` wraps a run and
returns the report dict the benchmark and the smoke tests consume.

The repo's benches of these regimes are harness runs too, each with
its scenario's constants: ``chaos`` on seeded schedules, ``rebalance``
(two joins, three leaves) and ``flash_crowd`` (one crowd, with and
without the defences) on handcrafted ones, their config subclasses
setting only the topology (:mod:`repro.bench.runners.sharding`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from repro.chaos.invariants import InvariantChecker
from repro.chaos.schedule import ChaosEvent, generate_schedule
from repro.core.cluster import StabilizerCluster
from repro.core.config import StabilizerConfig
from repro.core.recovery import save_snapshot, snapshot_state
from repro.errors import DiskFaultError
from repro.net.tc import NetemSpec
from repro.net.topology import Topology
from repro.obs.catalogue import merge
from repro.obs.tracer import Tracer
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.faultio import MemoryFileSystem
from repro.transport.messages import SyntheticPayload


@dataclass
class ScenarioConfig:
    """The knobs every scenario's callers set, and ``scenario``, the
    :class:`Scenario` class a config selects.  Topology, settle bounds and
    recorder size are constants; :class:`ChaosConfig` re-declares as
    fields the ones its callers sweep."""

    seed: int = 0
    events: int = 12
    trace_dir: str = "."  # where a failing seed dumps its flight recording

    azs: ClassVar[int] = 3
    nodes_per_az: ClassVar[int] = 2
    spare_hosts: ClassVar[int] = 0  # non-members ``s<i>``, spread over the AZs
    link: ClassVar[NetemSpec] = NetemSpec(latency_ms=10, rate_mbit=100)  # any two hosts
    settle_slice_s: ClassVar[float] = 2.0
    max_settle_slices: ClassVar[int] = 60
    # The flight recorder is always on — a failing seed must always come
    # with its interleaving.  The ring bounds the cost.
    trace_capacity: ClassVar[int] = 65536

    def groups(self) -> Dict[str, List[str]]:
        """Initial members by AZ (what the schedule may crash/leave)."""
        return {
            f"az{a}": [f"n{a}{i}" for i in range(self.nodes_per_az)]
            for a in range(self.azs)
        }


class Scenario:
    """What one kind of chaos run supplies to the shared harness.

    Every scenario defines ``schedule_budgets()`` (more
    :func:`generate_schedule` arguments), ``build_cluster()`` (on
    ``harness.net``), ``handlers()`` (its own event kinds, and steps to run
    after the shared ones), ``send(name)`` (one traffic tick at a live
    host) and ``report_extras(elapsed_s)``; the rest have defaults.
    """

    name: str  # dump-file prefix: ``<name>_failure_<seed>.trace.json``
    rng_salt = 0x5EED  # XOR-ed into the seed for the traffic RNG stream
    send_interval_s = 0.1  # per host

    def __init__(self, harness: "ChaosHarness"):
        self.harness = harness
        self.config = harness.config
        self.checker = harness.checker

    def arm_node(self, node) -> None:
        """Put policy and monitors on one freshly built node."""
        node.set_degradation_policy()
        self.checker.attach(node)

    def rearm_node(self, node) -> None:
        """The same for a node rebuilt from its crash snapshot."""
        self.arm_node(node)

    def send_interval(self, name: str) -> float:
        return self.send_interval_s

    def crash_node(self, node) -> None:
        node.crash()

    def after_event(self) -> None:
        """Extra continuous checks, after every fired event."""

    def after_traffic(self) -> None:
        """Between the traffic phase and the settle loop."""

    def quiescent(self) -> bool:
        return self.checker.all_delivered(list(self.harness.cluster))

    def final_checks(self) -> None:
        """Scenario invariants asserted at quiescence."""

    def close(self) -> None:
        """Stop what :meth:`build_cluster` started beside the cluster."""


class ChaosHarness:
    """See module docstring; ``schedule`` overrides the generated one."""

    def __init__(
        self,
        config: Optional[ScenarioConfig] = None,
        schedule: Optional[List[ChaosEvent]] = None,
    ):
        self.config = config = config or ChaosConfig()
        self.checker = InvariantChecker()
        self.scenario = scenario = config.scenario(self)
        self.groups = config.groups()
        self.node_names = [n for members in self.groups.values() for n in members]
        self.spares = [f"s{i}" for i in range(config.spare_hosts)]
        self.schedule: List[ChaosEvent] = (
            schedule
            if schedule is not None
            else generate_schedule(
                self.groups,
                seed=config.seed,
                events=config.events,
                **scenario.schedule_budgets(),
            )
        )
        self.fired: List[Tuple[float, str, Tuple[str, ...]]] = []
        # node -> crash-instant snapshot; None marks a host that went
        # dark before it ran a node (a spare whose join was still queued).
        self.crashed: Dict[str, Optional[dict]] = {}
        self.rng = random.Random(config.seed ^ scenario.rng_salt)
        self._waiter_timeouts = 0

        # Members AZ-major, then the spares: insertion order is the ACK
        # table's row order, and the pinned seeds depend on it.
        self.topo = topo = Topology.uniform(
            {name: az for az, members in self.groups.items() for name in members},
            config.link,
        )
        for i, name in enumerate(self.spares):
            topo.add_node(name, group=f"az{i % config.azs}")
        # Partition events cut whole AZs, spares included: a spare mid-join
        # can find itself on the wrong side of the cut.
        self.all_groups = topo.groups()
        self.sim = Simulator()
        self.net = topo.build(self.sim, RngRegistry(config.seed))
        # One flight recorder across the whole cluster (and every node
        # incarnation), stamped with virtual time.  On an invariant
        # failure the checker dumps it next to the test output.
        self.tracer = Tracer(clock=self.sim.clock, capacity=config.trace_capacity)
        self.checker.flight_recorder = self.tracer
        dump = f"{scenario.name}_failure_{config.seed}.trace.json"
        self.checker.dump_path = Path(config.trace_dir) / dump
        self.cluster = scenario.build_cluster()
        for node in self.cluster:
            scenario.arm_node(node)
        # kind -> steps, each called with the event's target.  A scenario
        # handler for a shared kind runs after the shared step.
        self.handlers: Dict[str, List[Callable[..., None]]] = {
            "crash": [self._crash],
            "restart": [self._restart],
            "partition": [self._partition],
            "heal": [self._heal],
        }
        for kind, step in scenario.handlers().items():
            self.handlers.setdefault(kind, []).append(step)
        for event in self.schedule:
            if event.kind not in self.handlers:
                raise ValueError(
                    f"unknown chaos event kind {event.kind!r} for the "
                    f"{scenario.name} scenario"
                )

    def stabilizer_config(self, **tunables) -> StabilizerConfig:
        """The deployment every scenario starts from — the members only,
        spares join later — with the shared failure-detection tuning."""
        return StabilizerConfig(
            node_names=self.node_names,
            groups=self.groups,
            local=self.node_names[0],
            control_interval_s=0.005,
            failure_timeout_s=1.5,
            # Channels give up fast so dead-peer reports (not just the
            # heartbeat timer) drive suspicion during the run.
            max_retransmit_attempts=5,
            transport_max_rto_s=1.0,
            frame_bytes=2 * 1024,
            **tunables,
        )

    # -- traffic -----------------------------------------------------------------
    def traffic_end(self) -> float:
        return self.schedule[-1].at + 2.0

    def _start_traffic(self) -> None:
        hosts = self.node_names + self.spares
        for i, name in enumerate(hosts):
            # Stagger the first sends so streams do not tick in lockstep.
            offset = self.scenario.send_interval_s * (i + 1) / len(hosts)
            self.sim.call_later(offset, self._send_tick, name)

    def _send_tick(self, name: str) -> None:
        if self.sim.now < self.traffic_end():
            interval = self.scenario.send_interval(name)
            self.sim.call_later(interval, self._send_tick, name)
        if name in self.crashed:
            return  # the host is down; its timer idles until restart
        self.scenario.send(name)

    def guard(self, node, seq: int, key: str, **shard):
        """Put a release-verified waiter on ``(seq, key)``; returns it."""
        event = self.checker.guarded_waitfor(node, seq, key, timeout_s=60.0, **shard)
        event.add_callback(self._count_timeout)
        return event

    def _count_timeout(self, event) -> None:
        if event.failed:
            self._waiter_timeouts += 1

    # -- fault execution -----------------------------------------------------------
    def _arm_schedule(self) -> None:
        for event in self.schedule:
            self.sim.call_at(event.at, self._fire, event)

    def _fire(self, event: ChaosEvent) -> None:
        for step in self.handlers[event.kind]:
            step(*event.target)
        self.fired.append((self.sim.now, event.kind, event.target))
        self.checker.check_tables(self._live_nodes())
        self.scenario.after_event()

    def _crash(self, name: str) -> None:
        node = self.cluster.nodes.get(name)
        if node is None:
            self.crashed[name] = None
        else:
            # The crash-instant snapshot is the paper's persisted state:
            # reclaim waits for *everyone*, so what peers still buffer is
            # a superset of anything this snapshot lacks.
            self.crashed[name] = snapshot_state(node)
            self.scenario.crash_node(node)
        self.net.crash_node(name)

    def _restart(self, name: str) -> None:
        self.net.recover_node(name)
        snapshot = self.crashed.pop(name)
        if snapshot is not None:
            node = self.cluster.restart_node(name, snapshot)
            self.scenario.rearm_node(node)
            # Invariants 6+7: the recovered WAL must back the restored
            # persisted claims and everything peers ever observed.
            self.checker.check_restart(node)

    def _partition(self, a: str, b: str) -> None:
        self.net.partition(self.all_groups[a], self.all_groups[b])

    def _heal(self, *_azs: str) -> None:
        self.net.heal()  # restores every link, whichever cut is named

    def _live_nodes(self):
        return [node for node in self.cluster if node.name not in self.crashed]

    # -- the run -------------------------------------------------------------------
    def settle(self, quiescent: Callable[[], bool]) -> int:
        """Run bounded slices until ``quiescent()``; returns slices used."""
        slices = 0
        while not quiescent() and slices < self.config.max_settle_slices:
            slices += 1
            self.sim.run(until=self.sim.now + self.config.settle_slice_s)
        return slices

    def run(self) -> dict:
        """Execute the schedule under traffic; returns the report dict.

        Raises :class:`~repro.chaos.invariants.InvariantViolation` the
        moment any safety property breaks.
        """
        started = time.perf_counter()
        self._start_traffic()
        self._arm_schedule()
        # Heartbeats keep the event heap non-empty forever, so run in
        # bounded slices: first to the end of the schedule and traffic,
        # then settle until the scenario's quiescence predicate holds.
        self.sim.run(until=self.traffic_end() + 0.5)
        self.scenario.after_traffic()
        self.checker.check_tables(self._live_nodes())
        settle_slices = self.settle(self.scenario.quiescent)
        nodes = list(self.cluster)
        self.checker.check_tables(nodes)
        self.checker.check_delivery(nodes)
        self.scenario.final_checks()
        return self.report(time.perf_counter() - started, settle_slices)

    def report(self, elapsed_s: float, settle_slices: int) -> dict:
        report = {
            "seed": self.config.seed,
            "azs": len(self.groups),
            "schedule": [[ev.at, ev.kind, list(ev.target)] for ev in self.schedule],
            "fired": [[t, kind, list(target)] for t, kind, target in self.fired],
            "virtual_end_s": self.sim.now,
            "settle_slices": settle_slices,
            "waiter_timeouts": self._waiter_timeouts,
            "invariant_checks": self.checker.checks,
            "monitor_events": self.checker.monitor_events,
            "restarts_checked": self.checker.restarts_checked,
            "violations": list(self.checker.violations),
            "trace_events": self.tracer.emitted,
            "elapsed_s": elapsed_s,
        }
        report.update(self.scenario.report_extras(elapsed_s))
        return report

    def stream_report(self, elapsed_s: float) -> dict:
        """Report keys of the scenarios that note every send themselves."""
        return {
            "messages_sent": self.checker.sent_high(),
            "releases_checked": self.checker.releases_checked,
            "trace_dropped": self.tracer.dropped,
            "cluster_totals": merge(
                [node.stats() for node in self.cluster],
                each_prefix=[node.name for node in self.cluster],
            ),
            "checks_per_s": self.checker.checks / elapsed_s if elapsed_s > 0 else 0.0,
        }

    def close(self) -> None:
        self.scenario.close()
        self.cluster.close()


def run_chaos(
    config: Optional[ScenarioConfig] = None,
    schedule: Optional[List[ChaosEvent]] = None,
) -> dict:
    """Build a harness, run it, close it, return the report."""
    harness = ChaosHarness(config, schedule)
    try:
        return harness.run()
    finally:
        harness.close()


#: The report keys that measure the host, not the run.  Every other key of
#: every scenario's report is a function of the seed.
HOST_TIME_KEYS = frozenset({"elapsed_s", "checks_per_s"})


def virtual_view(report: dict) -> dict:
    """``report`` without its host-time keys: the part two runs of one
    seed — or the same seed before and after a change that keeps
    behaviour — must agree on, key for key."""
    return {key: value for key, value in report.items() if key not in HOST_TIME_KEYS}


# -- the classic scenario: crashes and partitions against durability ---------------
STRICT_KEY = "all_remote"
RELAXED_KEY = "any_remote"
DURABLE_KEY = "durable_all"

#: Disk faults honest software can survive: clean write errors, torn
#: writes (self-healed by the log), and lost pages after a failed fsync
#: (poison-and-rewrite).  Silent bit rot is deliberately absent — no
#: correct implementation can keep promises about bytes that lie.
CHAOS_DISK_FAULTS = ("fsync_fail", "eio_write", "enospc", "torn_write")
DISK_FAULT_RATE = 0.3  # how often an armed fault hits an eligible operation
PAYLOAD_BYTES = 1024
WAITER_EVERY = 5  # every n-th send of a node gets guarded waiters
DURABILITY_BATCH = 8  # WAL group commit
DURABILITY_INTERVAL_S = 0.01


class ClassicScenario(Scenario):
    """A durable cluster with a strict all-remote-nodes predicate, a
    relaxed any-remote-node predicate and a persisted-everywhere one, the
    stock :class:`~repro.core.degradation.MaskSuspectedPolicy` at every
    node, per-host fault-injecting disks, and optional checkpoints."""

    name = "chaos"
    send_interval_s = 0.15

    def __init__(self, harness: ChaosHarness):
        super().__init__(harness)
        self.checkpoints_taken = 0
        self.checkpoint_faults = 0

    def schedule_budgets(self) -> dict:
        kinds = CHAOS_DISK_FAULTS if self.config.disk_faults else ()
        return {"disk_fault_kinds": kinds}

    def build_cluster(self) -> StabilizerCluster:
        harness = self.harness
        base = harness.stabilizer_config(
            predicates={
                STRICT_KEY: "MIN($ALLWNODES - $MYWNODE)",
                RELAXED_KEY: "MAX($ALLWNODES - $MYWNODE)",
                # Released only when every node's WAL has fsynced the
                # bytes — the claim the durability-honesty invariants police.
                DURABLE_KEY: "MIN($ALLWNODES.persisted)",
            },
            durability=True,
            durability_group_commit_batch=DURABILITY_BATCH,
            durability_group_commit_interval_s=DURABILITY_INTERVAL_S,
            stabilization_strategy=self.config.stabilization_strategy,
        )

        # One seeded, fault-injectable filesystem per *host* — it
        # survives process crash-restarts, exactly like a disk.
        def fs_factory(name):
            return MemoryFileSystem(
                seed=(self.config.seed << 8) ^ harness.node_names.index(name)
            )

        self.cluster = StabilizerCluster(
            harness.net, base, fs_factory=fs_factory, tracer=harness.tracer
        )
        if self.config.checkpoint_interval_s is not None:
            for name in harness.node_names:
                harness.sim.call_later(
                    self.config.checkpoint_interval_s, self._checkpoint_tick, name
                )
        return self.cluster

    def handlers(self) -> Dict[str, Callable[..., None]]:
        return {"disk_fault": self._disk_fault, "disk_heal": self._disk_heal}

    def _disk_fault(self, name: str, fault: str) -> None:
        self.cluster.filesystems[name].injector.arm(fault, DISK_FAULT_RATE)

    def _disk_heal(self, name: str) -> None:
        self.cluster.filesystems[name].injector.clear()

    def send(self, name: str) -> None:
        node = self.cluster[name]
        size = self.harness.rng.randrange(64, PAYLOAD_BYTES)
        seq = node.send(SyntheticPayload(size))
        self.checker.note_sent(name, seq)
        if seq % WAITER_EVERY == 0:
            self.harness.guard(node, seq, STRICT_KEY)
            self.harness.guard(node, seq, DURABLE_KEY)

    def crash_node(self, node) -> None:
        node.crash()
        # The disk loses everything not fsynced — with a torn
        # (injector-random) fraction of the unsynced tail left behind
        # for recovery to truncate.
        self.cluster.filesystems[node.name].crash(torn=True)

    def _checkpoint_tick(self, name: str) -> None:
        """Periodic snapshot + WAL compaction at ``name`` — written through
        the node's own (fault-injecting) filesystem, so a checkpoint can
        itself hit ENOSPC or a failed fsync and must fail cleanly."""
        self.harness.sim.call_later(
            self.config.checkpoint_interval_s, self._checkpoint_tick, name
        )
        if name in self.harness.crashed:
            return
        node = self.cluster[name]
        try:
            save_snapshot(node, "snapshot.json", fs=self.cluster.filesystems[name])
            node.durability.checkpoint()
            self.checkpoints_taken += 1
        except DiskFaultError:
            self.checkpoint_faults += 1

    def report_extras(self, elapsed_s: float) -> dict:
        # Totals first: reading a frontier nobody observes is itself a
        # counted predicate evaluation.
        stream = self.harness.stream_report(elapsed_s)
        by_kind: Dict[str, int] = {}
        for fs in self.cluster.filesystems.values():
            for kind, count in fs.injector.injected.items():
                by_kind[kind] = by_kind.get(kind, 0) + count
        return {
            "nodes": len(self.harness.node_names),
            "final_frontiers": {
                node.name: {
                    origin: node.get_stability_frontier(STRICT_KEY, origin)
                    for origin in self.harness.node_names
                }
                for node in self.cluster
            },
            "durability": True,
            "disk_faults_injected": sum(by_kind.values()),
            "disk_faults_by_kind": dict(sorted(by_kind.items())),
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_faults": self.checkpoint_faults,
            **stream,
        }


@dataclass
class ChaosConfig(ScenarioConfig):
    """Knobs for one classic chaos run; defaults give the 3-AZ/6-node
    experiment with durability on."""

    azs: int = 3
    nodes_per_az: int = 2
    settle_slice_s: float = 2.0
    max_settle_slices: int = 60
    disk_faults: bool = False  # schedule CHAOS_DISK_FAULTS events too
    checkpoint_interval_s: Optional[float] = None  # snapshot + WAL compaction
    # Which stabilization engine the cluster runs (the invariants are
    # engine-agnostic; make strategy-smoke sweeps both).
    stabilization_strategy: str = "acktable"
    trace_capacity: int = 65536
    scenario: ClassVar[type] = ClassicScenario
