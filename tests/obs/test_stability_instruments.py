"""Stability-latency instruments: unit behavior plus a cluster
cross-check against an independently timed monitor (the acceptance
criterion: counts match exactly, means within 1%)."""

import pytest

from repro.core import StabilizerCluster, StabilizerConfig
from repro.net import NetemSpec, Topology
from repro.obs import MetricsRegistry, StabilityInstruments
from repro.sim import Simulator


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make(node="a"):
    clock = FakeClock()
    registry = MetricsRegistry()
    inst = StabilityInstruments(registry, clock=clock, node=node)
    return clock, registry, inst


def test_records_send_to_stable_delay_per_key():
    clock, registry, inst = make()
    inst.register_key("k")
    clock.now = 1.0
    inst.note_send(1, 3)  # one message chunked into seqs 1..3
    clock.now = 1.5
    inst.on_advance("k", "a", 2)
    clock.now = 2.0
    inst.on_advance("k", "a", 3)
    hist = registry.histogram("stability_latency.k")
    assert hist.count == 3
    # seqs 1..2 stabilized 0.5s after send, seq 3 a full second after.
    assert hist.min == pytest.approx(0.5)
    assert hist.max == pytest.approx(1.0)
    assert hist.sum == pytest.approx(2.0)
    assert inst.summary("k")["count"] == 3


def test_ignores_remote_origins():
    clock, registry, inst = make(node="a")
    inst.register_key("k")
    inst.note_send(1, 1)
    inst.on_advance("k", "b", 1)  # a remote stream's frontier
    assert registry.histogram("stability_latency.k").count == 0


def test_no_double_recording_on_frontier_recompute():
    clock, registry, inst = make()
    inst.register_key("k")
    inst.note_send(1, 1)
    inst.on_advance("k", "a", 1)
    inst.on_advance("k", "a", 1)  # recompute reports the same frontier
    assert registry.histogram("stability_latency.k").count == 1


def test_unknown_key_starts_tracking_lazily():
    clock, registry, inst = make()
    inst.note_send(1, 1)
    inst.on_advance("fresh", "a", 1)  # registered with the engine only
    assert registry.histogram("stability_latency.fresh").count == 1


def test_timestamps_gc_at_min_covered_floor():
    clock, registry, inst = make()
    inst.register_key("fast")
    inst.register_key("slow")
    inst.note_send(1, 10)
    inst.on_advance("fast", "a", 10)
    assert len(inst._send_times) == 10  # "slow" still needs them
    inst.on_advance("slow", "a", 6)
    assert len(inst._send_times) == 4  # 1..6 covered by both keys
    inst.on_advance("slow", "a", 10)
    assert len(inst._send_times) == 0


def test_cluster_instruments_match_independent_monitor_within_1pct():
    """The built-in histogram must agree with a hand-rolled monitor
    measuring the same send->stable delays from the outside."""
    topo = Topology()
    topo.add_node("a", "east")
    topo.add_node("b", "west")
    topo.add_node("c", "west")
    topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        ["a", "b", "c"],
        {"east": ["a"], "west": ["b", "c"]},
        "a",
        predicates={"all": "MIN($ALLWNODES - $MYWNODE)"},
        control_interval_s=0.005,
    )
    cluster = StabilizerCluster(net, config)
    a = cluster["a"]

    send_times = {}
    latencies = {}

    def observe(origin, frontier, old):
        if origin != "a":
            return
        for seq in range(old + 1, frontier + 1):
            if seq in send_times:
                latencies[seq] = sim.now - send_times[seq]

    a.monitor_stability_frontier("all", observe)

    def send_tick(remaining):
        seq = a.send(b"payload %d" % remaining)
        send_times[seq] = sim.now
        if remaining > 1:
            sim.call_later(0.01, send_tick, remaining - 1)

    sim.call_later(0.01, send_tick, 25)
    sim.run(until=2.0)
    cluster.close()

    assert len(latencies) == 25
    hist = a.registry.histogram("stability_latency.all")
    assert hist.count == len(latencies)
    independent_mean = sum(latencies.values()) / len(latencies)
    assert hist.mean == pytest.approx(independent_mean, rel=0.01)
    assert hist.max == pytest.approx(max(latencies.values()), rel=0.01)


def test_frontier_lag_gauges_track_received_gap():
    topo = Topology()
    topo.add_node("a", "east")
    topo.add_node("b", "west")
    topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        ["a", "b"],
        {"east": ["a"], "west": ["b"]},
        "a",
        predicates={"all": "MIN($ALLWNODES - $MYWNODE)"},
        control_interval_s=0.005,
    )
    cluster = StabilizerCluster(net, config)
    a, b = cluster["a"], cluster["b"]
    seq = a.send(b"hello")
    # Immediately after send: a's own stream is sent but b has not even
    # received it, so b's lag gauge for origin a shows the full gap.
    assert b.stats()["frontier_lag.a.received"] == 0  # nothing received yet
    sim.run_until_triggered(a.waitfor(seq, "all"), limit=2.0)
    sim.run(until=sim.now + 0.1)
    # Converged: every received-lag gauge reads zero on both nodes.
    for node in (a, b):
        stats = node.stats()
        assert stats["frontier_lag.a.received"] == 0
        assert stats["frontier_lag.b.received"] == 0
    cluster.close()


def test_frontier_lag_gauges_exist_only_for_cells_this_node_grants():
    """A lag gauge over a cell nobody grants reads as a backlog growing
    by one per message on a healthy cluster; a durable node's
    ``persisted`` gauge is the WAL's real backlog."""
    from repro.storage.faultio import MemoryFileSystem

    def run(durability, fs_factory=None):
        topo = Topology()
        topo.add_node("a", "east")
        topo.add_node("b", "west")
        topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
        sim = Simulator()
        config = StabilizerConfig(
            ["a", "b"],
            {"east": ["a"], "west": ["b"]},
            "a",
            predicates={"all": "MIN($ALLWNODES - $MYWNODE)"},
            control_interval_s=0.005,
            durability=durability,
        )
        cluster = StabilizerCluster(topo.build(sim), config, fs_factory=fs_factory)
        a, b = cluster["a"], cluster["b"]
        for _ in range(10):
            seq = a.send(b"hello")
        sim.run_until_triggered(a.waitfor(seq, "all"), limit=2.0)
        sim.run(until=sim.now + 0.5)
        return cluster, b

    def lag_keys(node):
        return sorted(k for k in node.stats() if k.startswith("frontier_lag."))

    # Non-durable: only the application would grant `persisted`, so there
    # is no gauge for it until it does — and then for that cell only.
    cluster, b = run(durability=False)
    assert lag_keys(b) == ["frontier_lag.a.received", "frontier_lag.b.received"]
    b.report_stability("persisted", 4, origin="a")
    assert lag_keys(b) == [
        "frontier_lag.a.persisted",
        "frontier_lag.a.received",
        "frontier_lag.b.received",
    ]
    assert b.stats()["frontier_lag.a.persisted"] == 6
    cluster.close()

    # Durable, healthy disk: the WAL grants `persisted` and catches up.
    cluster, b = run(durability=True)
    assert b.stats()["frontier_lag.a.persisted"] == 0
    cluster.close()

    # Durable, every fsync failing at b: received 10, persisted none.
    def failing(name):
        fs = MemoryFileSystem()
        if name == "b":
            fs.injector.arm("fsync_fail")
        return fs

    cluster, b = run(durability=True, fs_factory=failing)
    assert b.stats()["frontier_lag.a.received"] == 0
    assert b.stats()["frontier_lag.a.persisted"] == 10
    cluster.close()
