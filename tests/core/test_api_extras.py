"""Tests for the practical API extras: waitfor timeouts and operational
stats."""

from repro.core import StabilizerCluster, StabilizerConfig
from repro.errors import StabilizerError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator

NODES = ["a", "b", "c"]
GROUPS = {"east": ["a", "b"], "west": ["c"]}


def build(**kwargs):
    topo = Topology()
    topo.add_node("a", "east")
    topo.add_node("b", "east")
    topo.add_node("c", "west")
    topo.set_default(NetemSpec(latency_ms=10, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        NODES,
        GROUPS,
        "a",
        predicates={"all": "MIN($ALLWNODES - $MYWNODE)"},
        control_interval_s=0.001,
        **kwargs,
    )
    return sim, net, StabilizerCluster(net, config)


# ---------------------------------------------------------------------------
# waitfor timeouts.
# ---------------------------------------------------------------------------


def test_waitfor_succeeds_before_timeout():
    sim, net, cluster = build()
    a = cluster["a"]
    seq = a.send(b"x")
    event = a.waitfor(seq, "all", timeout_s=5.0)
    sim.run_until_triggered(event, limit=5.0)
    assert event.value == seq


def test_waitfor_times_out_when_node_is_down():
    sim, net, cluster = build()
    net.crash_node("c")
    a = cluster["a"]
    seq = a.send(b"x")
    event = a.waitfor(seq, "all", timeout_s=1.0)
    caught = []

    def waiter():
        try:
            yield event
        except StabilizerError as exc:
            caught.append(str(exc))

    proc = sim.spawn(waiter())
    sim.run_until_triggered(proc, limit=10.0)
    assert caught and "timed out" in caught[0]
    # The application reacts per Section III-E: adjust the predicate.
    a.change_predicate("all", "MIN($ALLWNODES - $MYWNODE - $WNODE_c)")
    retry = a.waitfor(seq, "all", timeout_s=5.0)
    sim.run_until_triggered(retry, limit=10.0)


def test_waitfor_timeout_noop_after_success():
    sim, net, cluster = build()
    a = cluster["a"]
    seq = a.send(b"x")
    event = a.waitfor(seq, "all", timeout_s=60.0)
    sim.run_until_triggered(event, limit=5.0)
    sim.run(until=120.0)  # the expiry timer fires harmlessly
    assert event.ok


def test_waitfor_already_satisfied_with_timeout():
    sim, net, cluster = build()
    a = cluster["a"]
    seq = a.send(b"x")
    sim.run_until_triggered(a.waitfor(seq, "all"), limit=5.0)
    event = a.waitfor(seq, "all", timeout_s=0.001)
    assert event.triggered and event.ok


# ---------------------------------------------------------------------------
# Stats.
# ---------------------------------------------------------------------------


def test_stats_reflect_activity():
    sim, net, cluster = build()
    a = cluster["a"]
    before = a.stats()
    assert before["messages_sent"] == 0
    seq = a.send(b"payload")
    sim.run_until_triggered(a.waitfor(seq, "all"), limit=5.0)
    sim.run(until=sim.now + 0.5)
    after = a.stats()
    assert after["messages_sent"] == 1
    assert after["strategy.frames_received"] > 0
    assert after["predicate_evaluations"] > 0
    assert after["pending_waiters"] == 0
    assert after["buffered_bytes"] == 0
    b_stats = cluster["b"].stats()
    assert b_stats["messages_received"] == 1
