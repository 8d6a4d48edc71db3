"""The link queue against one simulator entry per packet.

:class:`~repro.net.link.Link` keeps its in-order packets in flight as a
list and arms only the head's arrival; :class:`PerPacketLink` below is
the link as it was before, one ``call_at`` per packet.  Both run the same
seeded schedule — mixed sizes, jitter, loss, a mid-flight ``reshape`` to
a lower latency, the link taken down and the target crashed with packets
queued, and unrelated timers due at arrival instants — and must give the
same arrivals, at the same times, interleaved with the same timers, with
the same drops.
"""

import random

import pytest

from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.sim.rng import RngRegistry

#: Dyadic shaping, so serialization and arrival times are exact floats and
#: timers can tie with arrivals: 1 KiB serializes in 2**-10 s.
BANDWIDTH_BPS = 2.0**23
LATENCY_S = 2.0**-5
SIZES = (64, 1024, 1024, 4096, 9000)


class PerPacketLink(Link):
    """The reference: every packet's arrival is its own ``call_at``."""

    def send(self, port, payload, size_bytes):
        stats = self.stats
        if self.source.crashed:
            return False
        if not self.up or (self.loss_rate > 0 and self.rng.random() < self.loss_rate):
            stats.packets_dropped += 1
            return False
        now = self.sim.now
        self._busy_until = max(now, self._busy_until) + size_bytes * 8.0 / self.bandwidth_bps
        propagation = self.latency_s
        if self.jitter_s > 0:
            propagation += self.rng.uniform(0, self.jitter_s)
        self._backlog_bytes += size_bytes
        stats.max_backlog_bytes = max(stats.max_backlog_bytes, self._backlog_bytes)
        stats.packets_sent += 1
        stats.bytes_sent += size_bytes
        due = self._busy_until + propagation
        packet = Packet(self.src, self.dst, port, payload, size_bytes, due, 0)
        self.sim.call_at(due, self._arrive, packet, False)
        return True


def run_schedule(link_class, seed, jitter_s):
    """Run one seeded schedule over a link of ``link_class``; returns the
    log of arrivals and timers, and the link's and target's counters."""
    sim = Simulator()
    schedule = random.Random(seed)
    log = []
    source, target = Host("a", 0), Host("b", 1)

    def on_packet(packet):
        log.append((sim.now, "arrive", packet.payload))
        if packet.payload % 3 == 0:
            # Due at the instant a back-to-back 1 KiB packet would arrive.
            sim.call_at(sim.now + 2.0**-10, log.append, (sim.now, "echo", packet.payload))

    target.bind("test", on_packet)
    link = link_class(
        sim, source, target, LATENCY_S, BANDWIDTH_BPS,
        jitter_s=jitter_s, loss_rate=0.05 if jitter_s else 0.0,
        rng=RngRegistry(seed).stream("link"),
    )
    count = iter(range(10**6))

    def send():
        packet_id = next(count)
        link.send("test", packet_id, schedule.choice(SIZES))
        # Due when the packet arrives, if no jitter moves it: the packet
        # took its place in the event order first, so it must run first.
        due = sim.now + link.queueing_delay() + link.latency_s
        sim.call_at(due, log.append, (due, "tie", packet_id))

    for k in range(150):
        # Bursts on a 2**-10 grid, so sends, arrivals and timers share
        # instants; about the link's bandwidth, so its queue fills and drains.
        at = schedule.randrange(0, 1024) * 2.0**-10
        for _ in range(schedule.choice((1, 1, 1, 2, 8))):
            sim.call_at(at, send)
        sim.call_at(at + LATENCY_S, log.append, (at + LATENCY_S, "timer", k))
    sim.call_at(0.2, link.reshape, LATENCY_S / 4)  # later sends overtake the tail
    sim.call_at(0.5, link.reshape, LATENCY_S)
    sim.call_at(0.3, link.set_up, False)  # packets queued behind the head drop
    sim.call_at(0.4, link.set_up, True)
    sim.call_at(0.6, target.crash)
    sim.call_at(0.7, target.recover)
    sim.run()
    stats = link.stats
    counters = (
        stats.packets_sent, stats.packets_dropped, stats.bytes_sent,
        stats.max_backlog_bytes, link.backlog_bytes(), target.packets_received,
    )
    return log, counters


@pytest.mark.parametrize("jitter_s", [0.0, 2.0**-8])
@pytest.mark.parametrize("seed", range(6))
def test_the_queue_keeps_every_arrival_and_tie_of_a_call_per_packet(seed, jitter_s):
    expected = run_schedule(PerPacketLink, seed, jitter_s)
    log, counters = run_schedule(Link, seed, jitter_s)
    assert log == expected[0]
    assert counters == expected[1]
    # The schedule exercised what it is meant to.
    arrived = sum(1 for _t, kind, _id in log if kind == "arrive")
    sent, dropped = counters[0], counters[1]
    assert 0 < arrived < sent and dropped > 0


def test_in_order_traffic_keeps_one_heap_entry_per_link():
    sim = Simulator()
    target = Host("b", 1)
    heap_sizes = []
    target.bind("test", lambda p: heap_sizes.append(sim.pending_count()))
    link = Link(sim, Host("a", 0), target, LATENCY_S, BANDWIDTH_BPS)
    for _ in range(50):
        link.send("test", None, 1024)
    assert sim.pending_count() == 1
    sim.run()
    # Each arrival armed the next before its handler ran.
    assert heap_sizes == [1] * 49 + [0]


def test_a_packet_due_before_the_tail_gets_its_own_entry():
    sim = Simulator()
    target = Host("b", 1)
    arrivals = []
    target.bind("test", lambda p: arrivals.append(p.payload))
    link = Link(sim, Host("a", 0), target, LATENCY_S, BANDWIDTH_BPS)
    link.send("test", "slow", 1024)
    link.reshape(latency_s=0.0)
    link.send("test", "fast", 1024)
    assert sim.pending_count() == 2
    sim.run()
    assert arrivals == ["fast", "slow"]
