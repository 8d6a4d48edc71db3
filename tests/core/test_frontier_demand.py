"""Demand-driven frontiers: evaluated eagerly only where someone listens.

A slot ``(origin, key)`` is *observed* when its key has a monitor, the
slot has a pending waiter, the origin is the local node, or a tracer is
bound.  Everything else is a pull value.  The unit tests pin the rule on
a bare engine by operation counts (never the wall clock); the integration
cases run clusters where the receivers listen to nothing and check what
an asker can tell — reads, waiters, snapshots and restarts, under each
stabilization engine.  Under the bulk-set engines, which broadcast:
nothing.  Under the ACK-table engine, whose live reports follow demand
(``docs/strategies.md``, "Fan-out follows demand"): a first read at a
node that was not observing is a lower bound, everything after it is
exact one round trip later.  The gate at the end is the tier-1 form of
the ``perf/`` claim: receivers evaluate nothing and hear nothing live,
they report received to the sender only through its data channel's
ACKs, and the sender's monitor cannot tell.  ``test_frontier_equivalence.py``
has the randomized part, ``test_interest_contract.py`` the contract
against the all-observing twin.
"""

import cProfile
import gc

import pytest

from repro.core import (
    StabilizerCluster,
    StabilizerConfig,
    restore_state,
    snapshot_state,
)
from repro.core.acks import AckTable
from repro.core.frontier import FrontierEngine
from repro.core.strategy import STRATEGY_NAMES
from repro.dsl.semantics import DslContext
from repro.net import NetemSpec, Topology
from repro.obs import Tracer
from repro.sim import Simulator
from repro.sim.rng import RngRegistry

from tests.wiretap import Tap

NODES = ["a", "b", "c", "d"]
GROUPS = {"east": ["a", "b"], "west": ["c", "d"]}
RTT_S = 0.020  # build(): 10 ms one way
FLUSH_S = 0.001  # build(): control_interval_s
HEARTBEAT_S = 5.0 / 3.0  # the default failure_timeout_s / 3


def engine(**predicates):
    """Local node "a"; origin "d" is remote, so nobody observes it yet."""
    tables = {name: AckTable(len(NODES), 2) for name in ("a", "d")}
    eng = FrontierEngine(DslContext(NODES, GROUPS, "a"), tables)
    for key, source in predicates.items():
        eng.register_predicate(key, source)
    return eng


def bump(eng, origin, node, seq, type_id=0):
    """One control report: the table cell moves, the engine is told."""
    eng.tables[origin].update(node, type_id, seq)
    return eng.reevaluate(
        origin, updated_node=node, updated_cells=((type_id, seq),)
    )


def count_predicate_calls(eng, key):
    """Wrap ``key``'s compiled function; returns the list calls append to."""
    predicate = eng.predicate(key)
    inner = predicate._fn
    calls = []

    def counted(table):
        calls.append(1)
        return inner(table)

    predicate._fn = counted
    return calls


# ---------------------------------------------------------------------------
# The engine, by counts.
# ---------------------------------------------------------------------------


def test_unobserved_update_calls_no_predicate_and_allocates_no_slot_state():
    eng = engine(all="MIN($ALLWNODES)", any="MAX($ALLWNODES)")
    calls = count_predicate_calls(eng, "all") + count_predicate_calls(eng, "any")
    updates = [(step % len(NODES), step + 1) for step in range(400)]
    first = bump(eng, "d", 0, 1)
    profiler = cProfile.Profile()
    # A collection inside the window would count the gc callbacks other
    # libraries register (hypothesis has one) as calls of the engine.
    gc.collect()
    gc.disable()
    try:
        profiler.enable()
        for node, seq in updates:
            eng.tables["d"].table[node][0] = seq  # move the cell without a call
            result = eng.reevaluate(
                "d", updated_node=node, updated_cells=((0, seq),)
            )
            assert result is first  # one shared, empty, read-only mapping
        profiler.disable()
    finally:
        gc.enable()
    # Per update: reevaluate() itself and the one dictionary lookup.
    assert sum(e.callcount for e in profiler.getstats()) <= 2 * len(updates) + 1
    assert calls == []
    assert eng.evaluations == eng.evaluations_on_read == 0
    assert eng.skipped_by_index == eng.skipped_by_shortcircuit == 0
    assert eng.fast_advances == 0
    assert eng._slots == {} and eng._frontiers == {} and eng._monitor_high == {}
    assert not result and dict(result) == {}
    with pytest.raises(TypeError):
        result["all"] = 1


def test_reading_an_unobserved_slot_evaluates_the_table_then_and_there():
    eng = engine(any="MAX($ALLWNODES)")
    for seq in (3, 7):
        bump(eng, "d", 1, seq)
        assert eng.evaluations == eng.evaluations_on_read  # nothing eager
        assert eng.frontier("d", "any") == seq
    assert eng.evaluations_on_read == 2
    assert eng._frontiers == {}  # a read leaves no cache behind
    # The local origin is observed from construction: eager, never pulled.
    bump(eng, "a", 1, 5)
    assert eng.frontier("a", "any") == 5
    assert eng.evaluations_on_read == 2
    # Unknown origins and keys read as a never-evaluated slot always did.
    assert eng.frontier("nope", "any") == 0


def test_first_waiter_turns_the_slot_eager_and_the_last_release_turns_it_back():
    eng = engine(all="MIN($ALLWNODES)", any="MAX($ALLWNODES)")
    for node in range(len(NODES)):
        bump(eng, "d", node, 4)
    released = []
    eng.add_waiter("d", 4, lambda: released.append("met"), key="all")
    assert released == ["met"] and "d" not in eng.watched  # already satisfied
    eng.add_waiter("d", 6, lambda: released.append("six"), key="all")
    # Seeded from the evaluation add_waiter made: value, witness, high mark.
    assert eng.evaluations_on_read == 2
    assert eng._frontiers[("d", "all")] == 4
    assert eng._slots[("d", "all")] == frozenset(
        (node, 0) for node in range(len(NODES))
    )
    assert eng._monitor_high[("d", "all")] == 4
    assert eng.watched["d"] == {"all"}  # ... and only that key of "d"
    eager = eng.evaluations
    for node in range(len(NODES)):
        bump(eng, "d", node, 5)
    assert eng.evaluations > eager and eng.evaluations_on_read == 2
    assert ("d", "any") not in eng._slots  # its neighbour stays a pull value
    assert eng.frontier("d", "all") == 5 and released == ["met"]
    for node in range(len(NODES)):
        bump(eng, "d", node, 9)
    assert released == ["met", "six"]
    # Last listener gone: no cache, no watch entry, reads pull again.
    assert ("d", "all") not in eng._frontiers and ("d", "all") not in eng._slots
    assert "d" not in eng.watched
    before = eng.evaluations_on_read
    assert eng.frontier("d", "all") == 9
    assert eng.evaluations_on_read == before + 1


def test_first_monitor_seeds_every_origin_and_hears_only_what_moves_afterwards():
    eng = engine(any="MAX($ALLWNODES)")
    bump(eng, "d", 2, 8)
    bump(eng, "a", 2, 3)
    heard = []
    eng.monitor_stability_frontier("any", lambda o, new, old: heard.append((o, new, old)))
    assert heard == []  # never a catch-up call
    assert eng.evaluations_on_read == 1  # "d" seeded; "a" was eager all along
    assert eng._frontiers[("d", "any")] == 8
    bump(eng, "d", 2, 8)  # stale report
    bump(eng, "d", 1, 11)
    bump(eng, "a", 1, 4)
    assert heard == [("d", 11, 8), ("a", 4, 3)]
    # A second monitor on the key seeds nothing and evaluates nothing.
    eng.monitor_stability_frontier("any", lambda *args: None)
    assert eng.evaluations_on_read == 1


def test_only_the_observed_keys_of_an_origin_are_evaluated():
    eng = engine(
        all="MIN($ALLWNODES)", any="MAX($ALLWNODES)", east="MIN($AZ_east)"
    )
    calls = {key: count_predicate_calls(eng, key) for key in eng.predicate_keys()}
    eng.monitor_stability_frontier("all", lambda *args: None)
    for key in calls:
        del calls[key][:]  # forget the seeding evaluation
    for seq in range(1, 6):
        for node in range(len(NODES)):
            bump(eng, "d", node, seq)
    assert calls["all"] and not calls["any"] and not calls["east"]
    # The index counter sees the observed keys only: of 1 observed key,
    # every one of these reports touched it.
    assert eng.skipped_by_index == 0
    assert eng.frontier("d", "any") == eng.frontier("d", "east") == 5
    assert len(calls["any"]) == len(calls["east"]) == 1


def test_redefinition_folds_unobserved_progress_into_the_gap_rule():
    """The outgoing definition of an unobserved slot reached 10, unheard.
    A monitor that attaches after the redefinition must still stay silent
    up to 10 — as it would had the slot been evaluated all along."""
    eng = engine(p="MAX($ALLWNODES - $MYWNODE)")
    bump(eng, "d", 1, 10)
    eng.change_predicate("p", "MIN($ALLWNODES - $MYWNODE)")
    eng.reevaluate("d")
    assert eng.frontier("d", "p") == 0
    heard = []
    eng.monitor_stability_frontier("p", lambda o, new, old: heard.append((new, old)))
    for seq in (6, 10, 12):
        for node in (1, 2, 3):
            bump(eng, "d", node, seq)
    assert heard == [(12, 10)]


@pytest.mark.parametrize("enabled", [True, False])
def test_a_bound_tracer_observes_every_slot(enabled):
    """Enabled or not: the flag can flip at any instant, and from then on
    every ``frontier.advance`` must carry the slot's real previous value."""
    eng = engine(any="MAX($ALLWNODES)")
    bump(eng, "d", 1, 4)
    tracer = Tracer(enabled=enabled)
    eng.bind_obs(tracer, "a")
    assert eng._frontiers[("d", "any")] == 4  # seeded at binding
    bump(eng, "d", 1, 6)
    assert eng.evaluations_on_read == 1 and eng.frontier("d", "any") == 6
    tracer.enable()
    bump(eng, "d", 2, 9)
    advance = [ev for ev in tracer.events() if ev.etype == "frontier.advance"][-1]
    assert (advance.fields["old"], advance.fields["frontier"]) == (6, 9)


def test_snapshots_cover_unobserved_slots_and_restore_leaves_them_pulled():
    eng = engine(any="MAX($ALLWNODES)", all="MIN($ALLWNODES)")
    bump(eng, "d", 1, 8)
    bump(eng, "a", 1, 2)
    assert eng.snapshot_frontiers() == {"a": {"any": 2}, "d": {"any": 8}}
    assert eng.snapshot_monitor_high() == {"a": {"any": 2}, "d": {"any": 8}}
    other = engine(any="MAX($ALLWNODES)", all="MIN($ALLWNODES)")
    other.restore_frontiers(eng.snapshot_frontiers())
    # The local slot resumes from the restored value; the remote one keeps
    # nothing but its high-water mark and is read off the (empty) table.
    assert other.frontier("a", "any") == 2
    assert ("d", "any") not in other._frontiers
    assert other._monitor_high[("d", "any")] == 8
    assert other.frontier("d", "any") == 0
    heard = []
    other.monitor_stability_frontier("any", lambda o, new, old: heard.append((o, new, old)))
    bump(other, "d", 1, 5)  # below what the previous incarnation reported
    bump(other, "d", 1, 9)
    assert heard == [("d", 9, 8)]


# ---------------------------------------------------------------------------
# Clusters whose receivers listen to nothing.
# ---------------------------------------------------------------------------

PREDICATES = {
    "all": "MIN($ALLWNODES - $MYWNODE)",
    "third": "KTH_MAX(3, $ALLWNODES)",
}


def build(strategy="acktable", seed=0, nodes=NODES, groups=GROUPS, **spec):
    topo = Topology()
    for name in nodes:
        topo.add_node(name, next(g for g, members in groups.items() if name in members))
    topo.set_default(NetemSpec(latency_ms=10, rate_mbit=100, **spec))
    sim = Simulator()
    net = topo.build(sim, RngRegistry(seed))
    config = StabilizerConfig(
        nodes,
        groups,
        nodes[0],
        predicates=PREDICATES,
        control_interval_s=0.001,
        stabilization_strategy=strategy,
    )
    return sim, net, StabilizerCluster(net, config)


def assert_frontiers_match_tables(cluster):
    """``get_stability_frontier`` == ``predicate.evaluate`` on the node's
    own table, for every (origin, key) at every node."""
    for node in cluster:
        for origin, table in node.tables.items():
            for key in node.engine.predicate_keys():
                expected = node.engine.predicate(key).evaluate(table.table)
                assert node.get_stability_frontier(key, origin) == expected, (
                    f"{node.name}: {origin}/{key}"
                )


def send_every(sim, node, count, interval_s=0.004):
    for i in range(count):
        sim.call_at(sim.now + i * interval_s, node.send, b"x" * 64)


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_remote_site_read_and_waitfor_at_a_receiver(strategy):
    """``get_stability_frontier(origin=other)`` and ``waitfor(...,
    origin=other)`` at a node that observes nothing of that stream —
    under the ACK-table engine's cell updates and under the bulk-set path
    (``updated_node=None``) of the sequencer engine."""

    def run(listen_at_receivers):
        sim, net, cluster = build(strategy)
        if listen_at_receivers:
            for name in NODES[1:]:
                for key in PREDICATES:
                    cluster[name].monitor_stability_frontier(key, lambda *a: None)
        send_every(sim, cluster["a"], 30)
        released = []
        reads = []

        def read():
            reads.append(cluster["c"].get_stability_frontier("all", origin="a"))

        def ask():
            c = cluster["c"]
            read()
            for seq in (reads[-1], 20, 30):  # one already met, two ahead
                event = c.waitfor(seq, "all", origin="a")
                event.add_callback(
                    lambda ev, seq=seq: released.append((seq, sim.now))
                )

        sim.call_at(0.060, ask)
        # One round trip and one flush after the first question.
        sim.call_at(0.060 + RTT_S + FLUSH_S + 0.001, read)
        sim.run(until=2.0)
        evaluations = {n.name: n.stats()["predicate_evaluations"] for n in cluster}
        assert_frontiers_match_tables(cluster)  # reads: counted, so read last
        cluster.close()
        return reads, released, evaluations

    reads, released, evaluations = run(listen_at_receivers=False)
    assert [seq for seq, _at in released] == [reads[0], 20, 30]
    eager_reads, eager_released, eager_evaluations = run(listen_at_receivers=True)
    assert 0 < eager_reads[0] < eager_reads[1] < 20
    if strategy == "acktable":
        # Nobody at c observed a's stream, so b and d were not reporting
        # it there: the first read is a lower bound (here, nothing yet) —
        # and an observation.  One round trip later the read is exact and
        # the waiters release when the eager cluster's do, or within the
        # round trip the subscription took.
        assert reads[0] == 0 and reads[1] == eager_reads[1]
        for (seq, at), (eager_seq, eager_at) in zip(released[1:], eager_released[1:]):
            assert seq == eager_seq and eager_at <= at <= eager_at + RTT_S
    else:
        # Same answers, released at the same virtual instants, as a cluster
        # whose receivers evaluate every update eagerly.
        assert (reads, released) == (eager_reads, eager_released)
    # "b" and "d" were never asked anything; "c" evaluated for its reads
    # and while its waiters were pending, far less than eagerly.
    assert evaluations["b"] == evaluations["d"] == 0
    assert 0 < evaluations["c"] < eager_evaluations["c"]
    assert evaluations["a"] == eager_evaluations["a"]


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_snapshot_crash_restore_with_unobserved_slots(strategy):
    sim, net, cluster = build(strategy)
    a = cluster["a"]
    send_every(sim, a, 10)
    # One anti-entropy round after the stream: b observed nothing of it, so
    # under the ACK-table engine that round is what filled in its table.
    t0 = 0.1 + HEARTBEAT_S
    sim.run(until=t0)
    b = cluster["b"]
    assert b.stats()["predicate_evaluations"] == 0
    snap = snapshot_state(b)
    # The snapshot holds the frontier of the stream nobody at b listened to.
    assert snap["frontiers"]["a"] == {"all": 10, "third": 10}
    assert snap["monitor_high"]["a"] == {"all": 10, "third": 10}
    b.crash()
    net.crash_node("b")
    send_every(sim, a, 5)  # b misses these
    sim.run(until=t0 + 0.5)
    net.recover_node("b")
    restarted = cluster.restart_node("b", snap)
    assert restarted.get_stability_frontier("all", origin="a") == 10
    heard = []
    restarted.monitor_stability_frontier(
        "all", lambda origin, new, old: heard.append((origin, new, old))
    )
    sim.run(until=t0 + 0.5 + HEARTBEAT_S + 0.1)
    assert_frontiers_match_tables(cluster)
    assert restarted.get_stability_frontier("all", origin="a") == 15
    # The fresh monitor resumes above the pre-crash frontier, never below.
    assert heard and heard[0][2] == 10 and heard[-1][1] == 15
    assert all(new > old >= 10 for _origin, new, old in heard)
    # A restore into a node that listens to nothing stays consistent too.
    sim2 = Simulator()
    twin = StabilizerCluster(net.topology.build(sim2), a.config)["b"]
    restore_state(twin, snapshot_state(restarted))
    assert twin.get_stability_frontier("all", origin="a") == 15
    assert twin.stats()["predicate_evaluations_on_read"] == 1
    cluster.close()


# ---------------------------------------------------------------------------
# The tier-1 gate: operation counts of a seeded 5-node run, no wall clock.
# ---------------------------------------------------------------------------

FIVE = ["s", "r1", "r2", "r3", "r4"]
FIVE_GROUPS = {"home": ["s", "r1"], "east": ["r2"], "west": ["r3"], "south": ["r4"]}


def seeded_run(monitors_everywhere, seed=7):
    # Lossless and jitter-free: a link's loss and jitter draws come off one
    # RNG stream per link, so a single extra packet (an interest
    # announcement) would shift every later draw on it and the two runs
    # could no longer be compared instant by instant.
    # ``test_interest_contract.py`` has the lossy comparison.
    sim, net, cluster = build(seed=seed, nodes=FIVE, groups=FIVE_GROUPS)
    datagrams = Tap(net, "dgram")
    sender = cluster["s"]
    trajectory = []
    for key in PREDICATES:
        sender.monitor_stability_frontier(
            key,
            lambda origin, new, old, key=key: trajectory.append(
                (sim.now, key, origin, new, old)
            ),
        )
    if monitors_everywhere:
        for name in FIVE[1:]:
            for key in PREDICATES:
                cluster[name].monitor_stability_frontier(key, lambda *a: None)
    rng = RngRegistry(seed).stream("gate-arrivals")
    at = 0.0
    for _ in range(300):
        at += rng.expovariate(200.0)
        sim.call_at(at, sender.send, b"p" * rng.randint(64, 512))

    def tables():
        return {
            node.name: {o: t.snapshot() for o, t in node.tables.items()}
            for node in cluster
        }

    sim.run(until=at)  # the last send: before the first heartbeat
    assert at < HEARTBEAT_S
    midstream = tables()
    sim.run(until=at + HEARTBEAT_S + 0.1)
    assert sender.get_stability_frontier("all") == 300
    stats = {node.name: node.stats() for node in cluster}
    wire = {
        pair: (
            link.stats.packets_sent,
            sum(1 for _at, *seen, _p, _b in datagrams.seen if tuple(seen) == pair),
        )
        for pair, link in net.links.items()
    }
    final = tables()
    assert_frontiers_match_tables(cluster)
    cluster.close()
    return trajectory, stats, wire, midstream, final


def test_gate_receivers_evaluate_nothing_and_the_sender_cannot_tell():
    trajectory, stats, wire, midstream, final = seeded_run(monitors_everywhere=False)
    (
        eager_trajectory,
        eager_stats,
        eager_wire,
        eager_midstream,
        eager_final,
    ) = seeded_run(monitors_everywhere=True)
    for name in FIVE[1:]:
        assert stats[name]["predicate_evaluations"] == 0, name
        assert eager_stats[name]["predicate_evaluations"] > 300, name
    # The sender's monitors saw the same values, in the same order, at the
    # same virtual instants; the sender itself did the same work.
    assert trajectory == eager_trajectory
    assert len(trajectory) > 200 and trajectory[-1][3] == 300
    for counter in (
        "predicate_evaluations",
        "evaluations_skipped_by_index",
        "evaluations_skipped_by_shortcircuit",
        "frontier_fast_advances",
    ):
        assert stats["s"][counter] == eager_stats["s"][counter], counter
    # On the wire the receivers stopped telling each other what none of
    # them watches, and stopped reporting received to the sender: its
    # data channel's ACKs say the same.  A receiver-to-receiver link
    # carries no data, so all it saw is the start-up interest announcement
    # and the one heartbeat; the receiver-to-sender links carry the same
    # ACKs as before and, of datagrams, only that announcement and the
    # heartbeat.
    for name in FIVE[1:]:
        assert stats[name]["strategy.interest_announcements"] == len(FIVE) - 1
        assert stats[name]["strategy.acktable.reports_sent"] == 0
        assert eager_stats[name]["strategy.interest_announcements"] == 0
        assert eager_stats[name]["strategy.acktable.reports_sent"] > 300
    for (src, dst), (packets, datagrams) in wire.items():
        eager_packets, eager_datagrams = eager_wire[(src, dst)]
        if src == "s":
            assert packets == eager_packets, (src, dst)
        elif dst == "s":
            assert datagrams == 2 < eager_datagrams / 50, (src, dst)
            assert packets - datagrams == eager_packets - eager_datagrams
        else:
            assert packets == datagrams == 2 < eager_packets / 50, (src, dst)
    # The sender's tables are the eager cluster's at every instant.  A
    # receiver's are a lower bound of them mid-stream — its own row and the
    # origin's are live, its fellow receivers' rows are not — and equal one
    # heartbeat after the last send.
    assert midstream["s"] == eager_midstream["s"]
    behind = 0
    for name in FIVE[1:]:
        for origin, rows in midstream[name].items():
            for row, eager_row in zip(rows, eager_midstream[name][origin]):
                assert all(cell <= eager for cell, eager in zip(row, eager_row))
                behind += row != eager_row
    assert behind > 0
    assert final == eager_final
