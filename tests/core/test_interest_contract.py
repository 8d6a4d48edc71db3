"""Demand-derived control fan-out: the contract, against the twin.

Under the ACK-table engine a report about origin O goes to the peers that
*observe* O; everyone else converges by anti-entropy
(``docs/strategies.md``, "Fan-out follows demand").  What that trades is
stated against a twin that needs no knob: the same seeded cluster with a
monitor on every key at every node observes everything, so it *is* the
full-fan-out system.  Against it:

- **safety** — nothing any node reports (a monitor call, a waiter
  release, a read) and no table cell is ever ahead of the twin, under a
  random schedule of sends and of listeners coming and going, with
  control datagrams being lost;
- **liveness** — losslessly, the sender's monitors cannot tell the two
  apart, and a listener that arrives mid-stream at a receiver hears what
  the twin's does within a round trip and a flush;
- **convergence** — one heartbeat after the last send every table
  everywhere equals the twin's;
- a read at quiescence leaves packets in flight and no timer.

The bulk-set engines broadcast and run the same cases: for them the two
clusters differ in nothing, which is the checked half of "which claims
does each engine weaken" (``docs/strategies.md``).
"""

import bisect
import random

import pytest

from repro.core import StabilizerCluster, StabilizerConfig
from repro.core.strategy import STRATEGY_NAMES
from repro.net import NetemSpec, Topology
from repro.sim import Simulator

from tests.wiretap import Tap

NODES = ["s", "r1", "r2", "r3", "r4"]
GROUPS = {"home": ["s", "r1"], "east": ["r2"], "west": ["r3"], "south": ["r4"]}
PREDICATES = {
    "all": "MIN($ALLWNODES - $MYWNODE)",
    "third": "KTH_MAX(3, $ALLWNODES)",
    "any": "MAX($ALLWNODES - $MYWNODE)",
}
LATENCY_S = 0.010
RTT_S = 2 * LATENCY_S
FLUSH_S = 0.002
HEARTBEAT_S = 1.0
#: A link that carries fewer control packets delivers the data behind them
#: a serialization time (microseconds) sooner, so "the same virtual
#: instant" in two clusters is only defined up to that; the twin gets this
#: much grace, three orders of magnitude under anything the contract is about.
GRACE_S = 20e-6

pytestmark = pytest.mark.parametrize("strategy", STRATEGY_NAMES)


def build(strategy):
    topo = Topology()
    for name in NODES:
        topo.add_node(name, next(g for g, members in GROUPS.items() if name in members))
    topo.set_default(NetemSpec(latency_ms=LATENCY_S * 1e3, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        NODES,
        GROUPS,
        NODES[0],
        predicates=PREDICATES,
        control_interval_s=FLUSH_S,
        failure_timeout_s=3 * HEARTBEAT_S,
        stabilization_strategy=strategy,
    )
    return sim, net, StabilizerCluster(net, config)


def table_cells(cluster):
    return {
        node.name: {origin: t.snapshot() for origin, t in node.tables.items()}
        for node in cluster
    }


class Run:
    """One cluster through one schedule; everything it reported, logged.

    ``reports`` holds ``(time, node, origin, key, value)`` for every
    monitor call, waiter release (the released sequence number is a lower
    bound of the frontier) and read.  ``observe_everything`` makes the
    cluster the twin: a logging monitor on every key at every node, from
    the first instant.
    """

    def __init__(self, strategy, observe_everything, loss=None):
        self.sim, self.net, self.cluster = build(strategy)
        self.tap = None
        if loss:
            rate, seed = loss
            rng = random.Random(seed)
            self.tap = Tap(self.net, "dgram", lambda src, dst, p: rng.random() < rate)
        self.reports = []
        self.monitored = []  # the monitor calls among them
        self.samples = {}  # sample time -> table_cells()
        if observe_everything:
            for node in self.cluster:
                for key in PREDICATES:
                    self.monitor(node.name, key)

    def log(self, node, origin, key, value):
        self.reports.append((self.sim.now, node, origin, key, value))

    def monitor(self, node, key):
        def heard(origin, new, _old):
            self.log(node, origin, key, new)
            self.monitored.append(self.reports[-1])

        self.cluster[node].monitor_stability_frontier(key, heard)

    def waitfor(self, node, origin, key, seq):
        event = self.cluster[node].waitfor(seq, key, origin=origin)
        event.add_callback(lambda _ev: self.log(node, origin, key, seq))

    def read(self, node, origin, key):
        value = self.cluster[node].get_stability_frontier(key, origin=origin)
        self.log(node, origin, key, value)

    def sample_tables_at(self, times):
        for at in times:
            self.sim.call_at(at, lambda at=at: self.samples.update({at: table_cells(self.cluster)}))

    def frontier_trajectories(self):
        """``(node, origin, key) -> (times, values)`` of the monitor calls:
        in the twin, every frontier at every node as a step function."""
        out = {}
        for at, node, origin, key, value in self.monitored:
            times, values = out.setdefault((node, origin, key), ([], []))
            times.append(at)
            values.append(value)
        return out


def random_schedule(seed, span_s=1.2, sends=150, asks=40):
    """Sends from random origins; monitors, waiters and reads arriving at
    random nodes for random streams — as ``(time, method, args)`` rows a
    :class:`Run` can be driven with."""
    rng = random.Random(seed)
    rows = []
    sent = {name: 0 for name in NODES}
    for at in sorted(rng.uniform(0.0, span_s) for _ in range(sends)):
        origin = rng.choice(NODES[:3])  # three of the five ever send
        sent[origin] += 1
        rows.append((at, "send", (origin, rng.randint(64, 2048))))
    for _ in range(asks):
        at = rng.uniform(0.0, span_s)
        node, origin = rng.choice(NODES), rng.choice(NODES[:3])
        key = rng.choice(sorted(PREDICATES))
        kind = rng.choice(["monitor", "waitfor", "waitfor", "read", "read", "read"])
        if kind == "monitor":
            rows.append((at, "monitor", (node, key)))
        elif kind == "waitfor":
            seq = rng.randint(1, max(1, sent[origin]))
            rows.append((at, "waitfor", (node, origin, key, seq)))
        else:
            rows.append((at, "read", (node, origin, key)))
    return sorted(rows), sent


def drive(run, rows):
    for at, method, args in rows:
        if method == "send":
            origin, size = args
            run.sim.call_at(at, run.cluster[origin].send, b"p" * size)
        else:
            run.sim.call_at(at, getattr(run, method), *args)


def cellwise_le(cells, twin_cells):
    return all(
        cell <= twin_cell
        for node, per_origin in cells.items()
        for origin, rows in per_origin.items()
        for row, twin_row in zip(rows, twin_cells[node][origin])
        for cell, twin_cell in zip(row, twin_row)
    )


# -- safety ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nothing_reported_anywhere_is_ever_ahead_of_the_twin(strategy, seed):
    rows, _sent = random_schedule(seed)
    grid = [0.05 * k for k in range(1, 60)]  # to 3 s: two heartbeats past the end
    run = Run(strategy, observe_everything=False, loss=(0.05, seed))
    twin = Run(strategy, observe_everything=True)
    run.sample_tables_at(grid)
    twin.sample_tables_at([at + GRACE_S for at in grid])
    for each in (run, twin):
        drive(each, rows)
        each.sim.run(until=grid[-1] + 0.01)
    assert len(run.tap.dropped) > 20
    assert len(run.reports) > 100  # the schedule did make nodes report
    known = twin.frontier_trajectories()
    for at, node, origin, key, value in run.reports:
        times, values = known.get((node, origin, key), ((), ()))
        reached = bisect.bisect_right(times, at + GRACE_S)
        twin_value = values[reached - 1] if reached else 0
        assert value <= twin_value, (at, node, origin, key)
    for at in grid:
        assert cellwise_le(run.samples[at], twin.samples[at + GRACE_S]), at
    run.cluster.close()
    twin.cluster.close()


# -- liveness --------------------------------------------------------------------
def first_reached(reports, node, origin, key):
    """``value -> when (node, origin, key) was first reported >= value``."""
    out = {}
    high = 0
    for at, n, o, k, value in reports:
        if (n, o, k) == (node, origin, key):
            for v in range(high + 1, value + 1):
                out[v] = at
            high = max(high, value)
    return out


def test_the_sender_cannot_tell_and_a_late_listener_is_one_round_trip_behind(strategy):
    rng = random.Random(5)
    sends = sorted(rng.uniform(0.0, 0.9) for _ in range(180))
    attach_at = 0.3
    rows = [(at, "send", ("s", rng.randint(64, 1024))) for at in sends]
    rows.append((0.0, "monitor", ("s", "all")))
    rows.append((0.0, "monitor", ("s", "third")))
    # Mid-stream, two receivers start listening to the sender's stream.
    rows.append((attach_at, "waitfor", ("r2", "s", "all", 120)))
    rows.append((attach_at, "waitfor", ("r2", "s", "all", 180)))
    rows.append((attach_at, "monitor", ("r3", "third")))
    rows.sort(key=lambda row: row[0])
    run = Run(strategy, observe_everything=False)
    twin = Run(strategy, observe_everything=True)
    for each in (run, twin):
        drive(each, rows)
        each.sim.run(until=0.9 + HEARTBEAT_S)

    def at_sender(reports):
        # dict.fromkeys: the twin hears each advance twice, through its
        # own monitor and through the schedule's.
        return list(
            dict.fromkeys(
                r for r in reports if r[1] == r[2] == "s" and r[3] in ("all", "third")
            )
        )

    # Values and virtual times.
    assert at_sender(run.reports) == at_sender(twin.reports)
    assert len(at_sender(run.reports)) > 100
    behind = RTT_S + FLUSH_S
    # r2's waiters: released when the twin's are, or within the round trip
    # the subscription took.  r3's monitor: every value the twin's r3
    # reached after the attach, this one reached that soon after — and
    # once the subscription has taken, at the same instant.
    released = {value: at for at, node, *_slot, value in run.reports if node == "r2"}
    assert sorted(released) == [120, 180]
    heard = first_reached(run.reports, "r3", "s", "third")
    for node, key, reached in (("r2", "all", released), ("r3", "third", heard)):
        twin_reached = first_reached(twin.reports, node, "s", key)
        lags = [
            at - twin_reached[value]
            for value, at in sorted(reached.items())
            if twin_reached[value] >= attach_at
        ]
        assert len(lags) >= 2
        assert all(-GRACE_S <= lag <= behind + GRACE_S for lag in lags), lags
        assert abs(lags[-1]) <= GRACE_S
    run.cluster.close()
    twin.cluster.close()


# -- convergence -----------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2])
def test_one_heartbeat_after_the_last_send_every_table_is_the_twins(strategy, seed):
    rows, sent = random_schedule(seed, asks=10)
    last_send = max(at for at, method, _args in rows if method == "send")
    run = Run(strategy, observe_everything=False)
    twin = Run(strategy, observe_everything=True)
    # The last grants are flushed one delivery and one flush after the last
    # send; the first heartbeat after that carries them everywhere.
    settled = last_send + LATENCY_S + FLUSH_S + HEARTBEAT_S + LATENCY_S + 0.005
    for each in (run, twin):
        drive(each, rows)
        each.sim.run(until=settled)
    assert table_cells(run.cluster) == table_cells(twin.cluster)
    # Chaos invariant 15 at non-observers too: what a node would answer is
    # the predicate of its table, and the table is complete.
    for node in run.cluster:
        for origin, count in sent.items():
            for key in PREDICATES:
                assert node.get_stability_frontier(key, origin) == count
    run.cluster.close()
    twin.cluster.close()


# -- a read at quiescence ----------------------------------------------------------
def test_a_read_at_quiescence_leaves_no_timer_on_the_heap(strategy):
    run = Run(strategy, observe_everything=False)
    drive(run, [(0.01 * k, "send", ("s", 256)) for k in range(1, 20)])
    run.sim.run(until=0.2 + HEARTBEAT_S + 0.1)
    net, sim = run.net, run.sim

    links = set(net.links.values())

    def in_flight():
        return sum(link.stats.packets_sent for link in links) - sum(
            host.packets_received for host in net.hosts.values()
        )

    def timers():
        # A link puts only its first packet in flight on the heap, so
        # packets are counted on the links and timers on the heap.
        return sum(
            1
            for handle in sim._heap
            if not handle.cancelled
            and getattr(handle[2], "__self__", None) not in links
        )

    assert in_flight() == 0
    armed = timers()
    assert sim.pending_count() == armed
    for name in NODES[1:]:
        run.read(name, "s", "all")
    assert [value for *_rest, value in run.reports] == [19] * 4
    # Under the ACK-table engine each of the four reads was a first
    # observation, announced to the four peers at once; the bulk-set
    # sequencer had nothing to say.
    assert in_flight() == (16 if strategy == "acktable" else 0)
    assert timers() == armed
    # Every peer answers with its state, and then it is quiet again.
    sim.run(until=sim.now + 2 * RTT_S)
    assert in_flight() == 0 and sim.pending_count() == timers() == armed
    run.cluster.close()
