"""A WAN frame is the unit of arrival — and nothing but the unit changed.

The receive path applies an arrived frame (a contiguous run of one
origin's stream) as one ACK-table update.  This is the differential
test of that: one stream is fed to a receiver's data plane under every
partition of it into frames, and the outcome is compared with the run
that feeds the same messages at the same virtual instants one message per
frame — the path every message took before.  Equal: the receive
watermark, the message and duplicate counters, the ACK tables, the
frontiers, what was delivered, what the WAL was handed and in which
order, and the control reports the node flushed (the batcher here
flushes on its timer, as it does wherever fewer than ``control_batch``
cells are pending; a count-driven flush cut *inside* a frame would carry
the frame's last ``received`` where the per-message path carried an
intermediate one).  The one thing allowed to differ is what a monitor at
the receiver sees: one advance per arrival for a same-instant chain
(``collapse``, shared with the golden test).

Frames enter through the channel's ``on_deliver`` receiver, the seam the
transport uses.
"""

import random
from itertools import product

import pytest

from repro.core import StabilizerCluster, StabilizerConfig
from repro.core.dataplane import DATA_CHANNEL, FRAME_TAG
from repro.errors import StabilizerError
from repro.net import NetemSpec, Topology
from repro.obs import Tracer
from repro.sim import Simulator

from .test_strategy_equivalence import collapse

NODES = ["x", "y", "z"]
PREDICATES = {
    "all": "MIN($ALLWNODES - $MYWNODE)",
    "any": "MAX($ALLWNODES - $MYWNODE)",
    "disk": "MIN($ALLWNODES.persisted)",
}
#: Virtual seconds between arrivals: several flush and commit intervals.
ARRIVAL_GAP_S = 0.05


def make_stream(rng, count, start=1):
    """``count`` messages of origin x from sequence ``start``: objects of
    one to four chunks, ``[(chunk_meta, payload), ...]``.  The stream
    begins and ends at object boundaries."""
    stream = []
    object_id = 100
    while len(stream) < count:
        chunks = min(rng.randint(1, 4), count - len(stream))
        for index in range(chunks):
            seq = start + len(stream)
            payload = bytes([seq % 251]) * rng.randint(1, 40)
            stream.append(((seq, object_id, index, chunks, f"o{object_id}"), payload))
        object_id += 1
    return stream


def wire_frame(messages, epoch=0):
    """``messages`` (real payloads) as the one transport frame the sender
    would cut: ``(payload, meta)``."""
    if len(messages) == 1:
        meta, payload = messages[0]
        return payload, (epoch, meta)
    metas = tuple(meta for meta, _payload in messages)
    lengths = tuple(len(payload) for _meta, payload in messages)
    payload = b"".join(payload for _meta, payload in messages)
    return payload, (epoch, (FRAME_TAG, metas, lengths))


class Receiver:
    """Node y of a three-node durable cluster, with everything the
    comparison reads recorded."""

    def __init__(self, traced=False):
        topo = Topology()
        for name in NODES:
            topo.add_node(name, group=name)
        topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
        self.sim = Simulator()
        config = StabilizerConfig(
            NODES,
            {n: [n] for n in NODES},
            "x",
            predicates=PREDICATES,
            durability=True,
            durability_group_commit_batch=3,
        )
        self.tracer = Tracer(clock=self.sim.clock) if traced else None
        self.cluster = StabilizerCluster(
            topo.build(self.sim), config, tracer=self.tracer
        )
        self.node = node = self.cluster["y"]
        self.delivered, self.wal, self.reports, self.advances = [], [], [], []
        node.on_delivery(
            lambda origin, seq, payload, meta: self.delivered.append(
                (origin, seq, bytes(payload), meta)
            )
        )
        for key in PREDICATES:
            node.monitor_stability_frontier(
                key,
                lambda origin, new, old, _k=key: self.advances.append(
                    [self.sim.now, _k, origin, new, old]
                ),
            )
        append = node.dataplane.on_received

        def record_append(origin, seq, payload):
            self.wal.append((origin, seq, bytes(payload)))
            append(origin, seq, payload)

        node.dataplane.on_received = record_append
        ship = node.controlplane.send_frame

        def record_report(peer, frame):
            self.reports.append((self.sim.now, peer, frame.encode()))
            return ship(peer, frame)

        node.controlplane.send_frame = record_report

    def arrive(self, messages, epoch=0):
        payload, meta = wire_frame(messages, epoch)
        self.node.endpoint.channel("x", DATA_CHANNEL).on_deliver(payload, meta)

    def arrive_all(self, frames):
        for frame in frames:
            self.arrive(frame)

    def play(self, arrivals, per_message=False):
        """Feed ``arrivals`` (lists of messages), one virtual instant
        each; ``per_message``, every message as a frame of its own."""
        for index, messages in enumerate(arrivals):
            frames = [[m] for m in messages] if per_message else [messages]
            self.sim.call_later((index + 1) * ARRIVAL_GAP_S, self.arrive_all, frames)
        self.sim.run(until=(len(arrivals) + 2) * ARRIVAL_GAP_S)
        return self

    def state(self):
        node = self.node
        return {
            "highest_received": node.dataplane.highest_received("x"),
            "messages_received": node.dataplane.messages_received,
            "duplicates_dropped": node.dataplane.duplicates_dropped,
            "tables": {o: t.snapshot() for o, t in node.tables.items()},
            "frontiers": {
                key: node.get_stability_frontier(key, "x") for key in PREDICATES
            },
            "delivered": self.delivered,
            "wal": self.wal,
            "wal_watermarks": node.durability.watermarks(),
            "reports": self.reports,
        }

    def close(self):
        self.cluster.close()


def assert_same_outcome(arrivals):
    framed = Receiver().play(arrivals)
    single = Receiver().play(arrivals, per_message=True)
    try:
        assert framed.state() == single.state()
        assert framed.advances == collapse(single.advances)
        assert framed.node.dataplane.messages_received  # it did run
    finally:
        framed.close()
        single.close()


def partitions(stream):
    """Every way to cut ``stream`` into consecutive non-empty frames."""
    for cuts in product((False, True), repeat=len(stream) - 1):
        frames, frame = [], [stream[0]]
        for message, cut in zip(stream[1:], cuts):
            if cut:
                frames.append(frame)
                frame = []
            frame.append(message)
        frames.append(frame)
        yield frames


def test_every_partition_of_a_stream_into_frames_has_one_outcome():
    stream = make_stream(random.Random(23), 8)
    count = 0
    for frames in partitions(stream):
        assert_same_outcome(frames)
        count += 1
    assert count == 2 ** 7


@pytest.mark.parametrize("seed", range(16))
def test_seeded_frames_with_replays_and_a_late_join(seed):
    """Longer streams cut into frames of 1..5: some begin mid-stream
    (first contact at seq != 1), and replays re-send a range that
    overlaps what is already held — wholly, or as a frame's prefix."""
    rng = random.Random(seed)
    start = 1 if seed % 2 == 0 else rng.randint(2, 90)
    stream = make_stream(rng, rng.randint(12, 20), start=start)
    arrivals, at = [], 0
    while at < len(stream):
        size = rng.randint(1, 5)
        lead = rng.randint(0, min(at, 4)) if rng.random() < 0.4 else 0
        arrivals.append(stream[at - lead : at + size])
        at += size
        if rng.random() < 0.25:
            # A replay of nothing new.
            low = rng.randrange(at)
            arrivals.append(stream[low : rng.randint(low + 1, at)])
    assert any(len(frame) > 1 for frame in arrivals)
    assert_same_outcome(arrivals)


def test_a_gap_inside_a_frame_raises_before_any_state_moves():
    receiver = Receiver()
    stream = make_stream(random.Random(1), 8)
    receiver.arrive(stream[:2])

    def in_progress():
        obj = receiver.node.dataplane._objects.get("x")
        return obj and (obj[0], obj[1], [bytes(p) for p in obj[2]], obj[3])

    before = receiver.state()
    held = in_progress()
    with pytest.raises(StabilizerError, match="FIFO transport is broken"):
        receiver.arrive(stream[2:4] + stream[5:7])  # seq 5 is missing
    with pytest.raises(StabilizerError, match="FIFO transport is broken"):
        receiver.arrive(stream[3:6])  # the frame itself starts past the held run
    assert receiver.state() == before
    assert in_progress() == held
    # The stream continues where it was.
    receiver.arrive(stream[2:])
    assert receiver.node.dataplane.highest_received("x") == 8
    receiver.close()


def test_a_stale_epoch_frame_is_counted_and_dropped_whole():
    receiver = Receiver()
    stream = make_stream(random.Random(2), 6)
    receiver.arrive(stream[:2])
    before = receiver.state()
    receiver.arrive(stream[2:6], epoch=7)
    assert receiver.node.dataplane.stale_epoch_frames == 1
    assert receiver.state() == before
    receiver.arrive(stream[2:6])
    assert receiver.node.dataplane.highest_received("x") == 6
    receiver.close()


def test_every_sequence_of_a_frame_keeps_its_trace_events():
    """With a tracer on, a frame of k still yields one ``data.receive``,
    ``ack.local`` and — for a completed object — ``data.deliver`` per
    sequence, and one ``data.duplicate`` per dropped one: what span
    reconstruction looks a send's ack up by."""
    stream = make_stream(random.Random(5), 12)
    arrivals = [stream[:5], stream[3:9], stream[2:4], stream[9:]]
    per_sequence = ("data.receive", "data.deliver", "data.duplicate", "ack.local")

    def lifecycle(per_message):
        receiver = Receiver(traced=True).play(arrivals, per_message=per_message)
        events = sorted(
            (event.ts, event.etype, sorted(event.fields.items()))
            for event in receiver.tracer.events()
            if event.node == "y" and event.etype in per_sequence
        )
        receiver.close()
        return events

    framed = lifecycle(per_message=False)
    assert framed == lifecycle(per_message=True)
    received = [
        dict(fields)["seq"] for _ts, etype, fields in framed
        if etype == "ack.local" and dict(fields)["type"] == "received"
    ]
    assert received == list(range(1, 13))
