"""Stability-latency instruments: unit behavior plus a cluster
cross-check against an independently timed monitor (the acceptance
criterion: counts match exactly, means within 1%)."""

import random
from collections import deque

import pytest

from repro.core import StabilizerCluster, StabilizerConfig
from repro.net import NetemSpec, Topology
from repro.obs import MetricsRegistry, StabilityInstruments
from repro.obs.metrics import Histogram
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
    inst.note_send(1, 10)  # one send: one run of ten seqs
    inst.on_advance("fast", "a", 10)
    assert list(inst._runs) == [(1, 10, 0.0)]  # "slow" still needs them
    inst.on_advance("slow", "a", 6)
    assert list(inst._runs) == [(7, 10, 0.0)]  # 1..6 covered by both keys
    inst.on_advance("slow", "a", 10)
    assert list(inst._runs) == []


class PerSequence:
    """The instruments as they were before runs: one send stamp per
    chunk sequence, one observation per covered sequence, stamps dropped
    at the lowest key's frontier — the reference the run store is held
    to."""

    def __init__(self, clock, node):
        self.clock = clock
        self.node = node
        self.hists = {}
        self.samples = []  # (key, latency): what on_sample saw
        self._send_times = {}
        self._send_order = deque()
        self._covered = {}

    def register_key(self, key):
        self._covered.setdefault(key, 0)

    def note_send(self, first_seq, last_seq):
        now = self.clock()
        for seq in range(first_seq, last_seq + 1):
            self._send_times[seq] = now
            self._send_order.append(seq)

    def on_advance(self, key, origin, frontier):
        if origin != self.node:
            return
        covered = self._covered.setdefault(key, 0)
        if frontier <= covered:
            return
        hist = self.hists.setdefault(key, Histogram(key))
        now = self.clock()
        for seq in range(covered + 1, frontier + 1):
            if seq in self._send_times:
                hist.observe(now - self._send_times[seq])
                self.samples.append((key, now - self._send_times[seq]))
        self._covered[key] = frontier
        floor = min(self._covered.values())
        while self._send_order and self._send_order[0] <= floor:
            del self._send_times[self._send_order.popleft()]

    def oldest_pending_age(self, key):
        covered = self._covered.get(key, 0)
        for seq in self._send_order:
            if seq > covered:
                return self.clock() - self._send_times[seq]
        return 0.0


def fields(hist):
    return (hist.count, hist.sum, hist.min, hist.max, hist.bucket_counts)


@pytest.mark.parametrize("seed", range(16))
def test_runs_match_the_per_sequence_reference(seed):
    """Seeded sends of 1–64 chunks, 1–3 keys advancing at their own pace
    (with recomputes and remote origins), and one key registered late —
    directly on odd seeds, lazily by its first advance on even ones: every
    histogram field, the ``on_sample`` sequence and every key's
    ``oldest_pending_age`` equal the per-sequence reference's."""
    rng = random.Random(seed)
    clock, registry, inst = make()
    reference = PerSequence(clock, "a")
    seen = []
    inst.on_sample = lambda key, latency: seen.append((key, latency))
    keys = [f"k{i}" for i in range(rng.randint(1, 3))]
    for key in keys:
        inst.register_key(key)
        reference.register_key(key)
    frontiers = dict.fromkeys(keys, 0)
    sent = 0
    late_at = rng.randint(20, 200)
    for step in range(400):
        clock.now += rng.expovariate(20.0)
        if step == late_at:
            frontiers["late"] = 0
            if seed % 2:
                inst.register_key("late")
                reference.register_key("late")
        if rng.random() < 0.35:
            chunks = rng.randint(1, 64)
            inst.note_send(sent + 1, sent + chunks)
            reference.note_send(sent + 1, sent + chunks)
            sent += chunks
        else:
            key = rng.choice(sorted(frontiers))
            frontier = min(sent, frontiers[key] + rng.choice((0, 1, 5, 40, 200)))
            origin = "a" if rng.random() < 0.9 else "b"
            if origin == "a":
                frontiers[key] = frontier
            inst.on_advance(key, origin, frontier)
            reference.on_advance(key, origin, frontier)
        for key in frontiers:
            assert inst.oldest_pending_age(key) == reference.oldest_pending_age(key)
    assert "late" in reference.hists and sent > 2000
    for key, hist in reference.hists.items():
        assert fields(registry.histogram(f"stability_latency.{key}")) == fields(hist)
    assert seen == reference.samples
    assert registry.counter("stability_latency.samples").value == len(seen)


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
