"""Failure detection (Section III-E) and snapshot/restore tests.

The crash-detection and snapshot/restore integration tests run once per
stabilization engine (the strategy redesign, docs/strategies.md): crash
suspicion rides the carrier heartbeats every engine shares, and
snapshots carry an engine-specific section that must round-trip.  The
FailureDetector unit tests below stay unparameterized — they never build
an engine.
"""

import pytest

from repro.core import (
    StabilizerCluster,
    StabilizerConfig,
    load_snapshot,
    restore_state,
    save_snapshot,
    snapshot_state,
)
from repro.core.membership import FailureDetector
from repro.core.stabilizer import Stabilizer
from repro.core.strategy import STRATEGY_NAMES
from repro.errors import StabilizerError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator

from tests.wiretap import Tap

NODES = ["a", "b", "c"]
GROUPS = {"east": ["a"], "west": ["b", "c"]}


def build(failure_timeout_s=0.5, strategy="acktable"):
    topo = Topology()
    topo.add_node("a", "east")
    topo.add_node("b", "west")
    topo.add_node("c", "west")
    topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        NODES,
        GROUPS,
        "a",
        predicates={"all": "MIN($ALLWNODES - $MYWNODE)"},
        control_interval_s=0.001,
        failure_timeout_s=failure_timeout_s,
        stabilization_strategy=strategy,
    )
    return sim, net, StabilizerCluster(net, config)


# ---------------------------------------------------------------------------
# FailureDetector unit behaviour.
# ---------------------------------------------------------------------------


def detector(sim, timeout=1.0):
    config = StabilizerConfig(NODES, GROUPS, "a", failure_timeout_s=timeout)
    return FailureDetector(sim, config)


def test_idle_system_never_suspects():
    sim = Simulator()
    det = detector(sim)
    det.start()
    sim.run(until=10.0)
    assert det.suspected() == set()


def test_silent_peer_suspected_after_timeout():
    sim = Simulator()
    det = detector(sim, timeout=1.0)
    suspects = []
    det.on_suspect(suspects.append)
    det.start()
    sim.call_later(0.1, det.heard_from, "b")
    sim.run(until=3.0)
    assert suspects == ["b"]
    assert det.is_suspected("b")


def test_peer_recovers_on_new_arrival():
    sim = Simulator()
    det = detector(sim, timeout=1.0)
    recovered = []
    det.on_recover(recovered.append)
    det.start()
    sim.call_later(0.1, det.heard_from, "b")
    sim.call_later(2.5, det.heard_from, "b")
    sim.run(until=4.0)
    assert recovered == ["b"]
    # Silence again after recovery re-suspects.
    sim.call_later(6.0, lambda: None)
    sim.run(until=6.0)
    assert det.is_suspected("b")


def test_stop_halts_timers():
    sim = Simulator()
    det = detector(sim)
    det.start()
    det.heard_from("b")
    det.stop()
    sim.run(until=10.0)
    assert det.suspected() == set()


def test_last_heard_is_tracked():
    sim = Simulator()
    det = detector(sim)
    assert det.last_heard("b") is None
    sim.call_later(0.7, det.heard_from, "b")
    sim.run()
    assert det.last_heard("b") == pytest.approx(0.7)


def test_suspect_flap_counts_every_transition():
    sim = Simulator()
    det = detector(sim, timeout=1.0)
    suspects, recovered = [], []
    det.on_suspect(suspects.append)
    det.on_recover(recovered.append)
    det.start()
    # b flaps: heard, silent past timeout, heard again — twice over.
    for start in (0.1, 3.0):
        sim.call_later(start, det.heard_from, "b")
    sim.run(until=6.0)
    assert suspects == ["b", "b"]
    assert recovered == ["b"]
    assert det.suspicions == 2
    assert det.recoveries == 1


def test_forced_suspect_fires_callbacks_once():
    sim = Simulator()
    det = detector(sim)
    suspects = []
    det.on_suspect(suspects.append)
    det.start()
    det.suspect("b")
    det.suspect("b")  # already suspected: no double report
    assert suspects == ["b"]
    assert det.suspicions == 1
    assert det.is_suspected("b")


def test_forced_suspect_while_stopped_is_silent():
    sim = Simulator()
    det = detector(sim)
    suspects = []
    det.on_suspect(suspects.append)
    det.suspect("b")  # never started
    assert det.is_suspected("b")
    assert suspects == []
    assert det.suspicions == 0


def test_heard_from_after_stop_records_without_callbacks():
    sim = Simulator()
    det = detector(sim, timeout=0.5)
    recovered = []
    det.on_recover(recovered.append)
    det.start()
    det.heard_from("b")
    sim.run(until=2.0)
    assert det.is_suspected("b")
    det.stop()
    det.heard_from("b")
    # The timestamp is fresh (for a later restart) and the suspicion is
    # cleared, but no recovery fires into the torn-down node.
    assert det.last_heard("b") == pytest.approx(sim.now)
    assert not det.is_suspected("b")
    assert recovered == []
    assert det.recoveries == 0


# ---------------------------------------------------------------------------
# Crash detection through the whole stack.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_crashed_secondary_is_suspected_by_primary(strategy):
    sim, net, cluster = build(failure_timeout_s=0.3, strategy=strategy)
    a = cluster["a"]
    a.send(b"warmup")
    sim.run(until=0.2)
    assert a.suspected_nodes() == set()
    net.crash_node("c")
    a.send(b"after crash")
    sim.run(until=2.0)
    assert "c" in a.suspected_nodes()
    assert "b" not in a.suspected_nodes()


# ---------------------------------------------------------------------------
# Snapshot / restore.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_snapshot_roundtrip_preserves_state(tmp_path, strategy):
    sim, net, cluster = build(strategy=strategy)
    a = cluster["a"]
    seq = a.send(b"persisted message")
    event = a.waitfor(seq, "all")
    sim.run_until_triggered(event, limit=2.0)

    path = tmp_path / "snap.json"
    save_snapshot(a, path)
    snapshot = load_snapshot(path)

    # A "restarted" node a: fresh instance on a fresh network.
    sim2 = Simulator()
    net2 = net.topology.build(sim2)
    restarted = Stabilizer(net2, a.config)
    restore_state(restarted, snapshot)
    assert restarted.get_stability_frontier("all") == seq
    assert restarted.dataplane.next_seq == a.dataplane.next_seq
    # The stream resumes without reusing sequence numbers.
    assert restarted.send(b"next") == seq + 1


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_restore_puts_every_cursor_at_the_restored_sequence(strategy):
    sim, net, cluster = build(strategy=strategy)
    a = cluster["a"]
    a.send(b"warmup")
    sim.run(until=0.2)
    net.crash_node("c")  # c never acks: the snapshot holds a buffer tail
    for i in range(3):
        a.send(b"unreclaimed-%d" % i)
    sim.run(until=1.0)
    snap = snapshot_state(a)
    assert snap["buffer"]["entries"]

    sim2 = Simulator()
    net2 = net.topology.build(sim2)
    restarted = Stabilizer(net2, a.config)
    restore_state(restarted, snap)
    assert restarted.dataplane.next_seq == snap["next_seq"]
    # The restored tail is replayed on request, not streamed: the next
    # send ships its own sequence and nothing below it.
    tap = Tap(net2, "data")
    seq = restarted.send(b"after restore")
    assert seq == snap["next_seq"]
    shipped = {dst: wire[4][1][0] for _at, _src, dst, wire, _size in tap.seen}
    assert shipped == {"b": seq, "c": seq}


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_restore_rejects_other_node_snapshot(strategy):
    sim, net, cluster = build(strategy=strategy)
    a, b = cluster["a"], cluster["b"]
    snap = snapshot_state(a)
    with pytest.raises(StabilizerError, match="belongs to node"):
        restore_state(b, snap)


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_restore_rejects_bad_version(strategy):
    sim, net, cluster = build(strategy=strategy)
    a = cluster["a"]
    snap = snapshot_state(a)
    snap["version"] = 99
    with pytest.raises(StabilizerError, match="version"):
        restore_state(a, snap)


def test_load_snapshot_missing_file(tmp_path):
    with pytest.raises(StabilizerError):
        load_snapshot(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# Version-2 snapshots: buffer tail, watermarks, engine rebuild.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_snapshot_roundtrips_the_unreclaimed_buffer_tail(strategy):
    sim, net, cluster = build(strategy=strategy)
    a = cluster["a"]
    a.send(b"warmup")
    sim.run(until=0.2)
    net.crash_node("c")  # c never acks: reclamation stalls at the floor
    seqs = [a.send(b"unreclaimed-%d" % i) for i in range(3)]
    sim.run(until=1.0)
    snap = snapshot_state(a)
    assert snap["version"] == 3
    held = [entry["seq"] for entry in snap["buffer"]["entries"]]
    assert set(seqs) <= set(held)

    sim2 = Simulator()
    net2 = net.topology.build(sim2)
    restarted = Stabilizer(net2, a.config)
    restore_state(restarted, snap)
    buffer = restarted.dataplane.buffer
    restored = [e.seq for e in buffer.entries_above(buffer.reclaimed_up_to)]
    assert restored == held
    # The restored tail is replayable: this is what catch-up resends.
    floor = buffer.reclaimed_up_to
    assert restarted.dataplane.replay_to("b", floor) == len(held)


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_restore_rebuilds_index_and_keeps_advancing(strategy):
    sim, net, cluster = build(strategy=strategy)
    a = cluster["a"]
    seq = a.send(b"before")
    event = a.waitfor(seq, "all")
    sim.run_until_triggered(event, limit=2.0)
    snap = snapshot_state(a)

    sim2 = Simulator()
    net2 = net.topology.build(sim2)
    cluster2 = StabilizerCluster(net2, a.config)
    restarted = cluster2["a"]
    restore_state(restarted, snap)
    restarted.request_catchup()
    # The rebuilt reverse dependency index still routes new ACK traffic to
    # the predicate: stability advances past the restored value.
    seq2 = restarted.send(b"after restart")
    event2 = restarted.waitfor(seq2, "all", timeout_s=5.0)
    sim2.run_until_triggered(event2, limit=5.0)
    assert event2.ok
    assert restarted.get_stability_frontier("all") == seq2


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_restore_releases_already_covered_waiters(strategy):
    sim, net, cluster = build(strategy=strategy)
    a = cluster["a"]
    seq = a.send(b"stable everywhere")
    sim.run_until_triggered(a.waitfor(seq, "all"), limit=2.0)
    snap = snapshot_state(a)

    sim2 = Simulator()
    net2 = net.topology.build(sim2)
    restarted = Stabilizer(net2, a.config)
    # Register the waiter *before* restoring: the restored frontier
    # already covers it and must release it immediately.
    event = restarted.waitfor(seq, "all", timeout_s=10.0)
    assert not event.triggered
    restore_state(restarted, snap)
    sim2.run(until=0.001)
    assert event.ok


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_monitor_high_survives_the_restart(strategy):
    sim, net, cluster = build(strategy=strategy)
    a = cluster["a"]
    seq = a.send(b"reported")
    sim.run_until_triggered(a.waitfor(seq, "all"), limit=2.0)
    snap = snapshot_state(a)
    assert snap["monitor_high"]["a"]["all"] == seq

    sim2 = Simulator()
    net2 = net.topology.build(sim2)
    # A full cluster, not a bare Stabilizer, so the restarted node's
    # peers exist to hear whatever its engine sends.
    cluster2 = StabilizerCluster(net2, a.config)
    restarted = cluster2["a"]
    reported = []
    restarted.monitor_stability_frontier(
        "all", lambda origin, value, old: reported.append((origin, value))
    )
    restore_state(restarted, snap)
    sim2.run(until=0.1)
    # Restoring must not re-report anything at or below the pre-crash
    # high-water mark to the fresh monitors.
    assert all(value > seq for _origin, value in reported)


@pytest.mark.parametrize("version", [1, 2, 4])
def test_retired_snapshot_versions_are_refused(version):
    # Nothing has written versions 1/2 since the durability layer, nor
    # the epoch-less sharded version 4 since live rebalancing; their read
    # paths are gone, and the version gate (it guards input from disk)
    # must say so rather than half-restore.
    sim, net, cluster = build()
    a = cluster["a"]
    seq = a.send(b"legacy")
    sim.run_until_triggered(a.waitfor(seq, "all"), limit=2.0)
    snap = snapshot_state(a)
    snap["version"] = version

    restarted = Stabilizer(net.topology.build(Simulator()), a.config)
    with pytest.raises(StabilizerError, match=f"version {version}"):
        restore_state(restarted, snap)
    assert restarted.get_stability_frontier("all") == 0
