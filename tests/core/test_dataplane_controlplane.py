"""Unit tests for the data-plane buffer and control-plane batching."""

import pytest

from repro.core import StabilizerCluster
from repro.core.config import StabilizerConfig
from repro.core.dataplane import DATA_CHANNEL, DataPlane, SendBuffer
from repro.errors import StabilizerError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.transport import TransportEndpoint
from repro.transport.messages import SyntheticPayload

NODES = ["x", "y"]


def build_net():
    topo = Topology()
    for name in NODES:
        topo.add_node(name, group=name)
    topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
    sim = Simulator()
    return sim, topo.build(sim)


def config(local="x", **kwargs):
    return StabilizerConfig(
        NODES, {n: [n] for n in NODES}, local, **kwargs
    )


# ---------------------------------------------------------------------------
# SendBuffer.
# ---------------------------------------------------------------------------


def test_send_buffer_reclaim_is_cumulative():
    buf = SendBuffer()
    for seq in range(1, 6):
        buf.add(seq, 100)
    assert buf.buffered_bytes() == 500
    assert buf.reclaim_up_to(3) == 3
    assert buf.buffered_bytes() == 200
    assert len(buf) == 2
    # Idempotent: reclaiming the same prefix again frees nothing.
    assert buf.reclaim_up_to(3) == 0
    assert buf.reclaim_up_to(5) == 2
    assert buf.total_reclaimed == 5


def test_send_buffer_limit():
    # The bound is soft: the buffer says what would overflow it, the data
    # plane's send policy acts on that, and ``add`` never refuses a chunk.
    buf = SendBuffer(max_bytes=250)
    buf.add(1, 100)
    buf.add(2, 100)
    assert not buf.would_overflow(50)
    assert buf.would_overflow(100)
    buf.add(3, 100)
    assert buf.buffered_bytes() == 300
    buf.reclaim_up_to(2)
    assert not buf.would_overflow(100)  # space freed


def test_send_buffer_reclaims_gaps_gracefully():
    buf = SendBuffer()
    buf.add(2, 50)  # seq 1 was never buffered (e.g. zero-length)
    assert buf.reclaim_up_to(2) == 1
    assert buf.buffered_bytes() == 0


# ---------------------------------------------------------------------------
# DataPlane.
# ---------------------------------------------------------------------------


def test_dataplane_assigns_contiguous_seqs_across_messages():
    sim, net = build_net()
    dp = DataPlane(TransportEndpoint(net, "x"), config(chunk_bytes=1000))
    assert dp.send(SyntheticPayload(2500)) == (1, 3)
    assert dp.send(b"tiny") == (4, 4)
    assert dp.last_sent_seq() == 4
    assert dp.next_seq == 5


def arrive(dp, origin, payload, meta):
    """Hand ``dp`` one transport frame from ``origin`` the way the FIFO
    channel does: through the channel's ``on_deliver`` receiver, in the
    epoch envelope every sender puts around a meta."""
    dp.endpoint.channel(origin, DATA_CHANNEL).on_deliver(payload, (dp.epoch, meta))


def test_dataplane_detects_sequence_gaps():
    sim, net = build_net()
    dp = DataPlane(TransportEndpoint(net, "y"), config(local="y"))
    arrive(dp, "x", b"payload", (1, 0, 0, 1, None))
    # Once contact is established, a gap means the transport is broken.
    with pytest.raises(StabilizerError, match="out of order"):
        arrive(dp, "x", b"payload", (3, 2, 0, 1, None))
    assert dp.highest_received("x") == 1


def test_dataplane_first_contact_adopts_stream_position():
    """A mirror joining a stream already in progress starts from the
    origin's current position (state transfer covers the past)."""
    sim, net = build_net()
    delivered = []
    dp = DataPlane(
        TransportEndpoint(net, "y"),
        config(local="y"),
        on_deliver=lambda origin, seq, payload, meta: delivered.append(seq),
    )
    arrive(dp, "x", b"late joiner", (42, 7, 0, 1, None))
    assert dp.highest_received("x") == 42
    assert delivered == [42]
    # But never mid-object: the first object could not be reassembled.
    dp2 = DataPlane(TransportEndpoint(net, "x"), config(local="x"))
    with pytest.raises(StabilizerError, match="mid-object"):
        arrive(dp2, "y", b"fragment", (42, 7, 1, 3, None))


def test_dataplane_delivery_and_received_callbacks():
    sim, net = build_net()
    received, delivered = [], []
    sender = DataPlane(TransportEndpoint(net, "x"), config(chunk_bytes=1000))
    receiver = DataPlane(
        TransportEndpoint(net, "y"),
        config(local="y", chunk_bytes=1000),
        on_deliver=lambda origin, seq, payload, meta: delivered.append(
            (origin, seq, payload, meta)
        ),
        on_received=lambda origin, seq, payload: received.append(seq),
    )
    sender.send(SyntheticPayload(2500), meta="file-1")
    sim.run(until=1.0)
    assert received == [1, 2, 3]  # every chunk acknowledged
    assert delivered == [("x", 3, SyntheticPayload(2500), "file-1")]


# ---------------------------------------------------------------------------
# Control-plane batching: the report batcher every engine shares
# (StabilizationStrategy), driven through ``grant_local`` on a two-node
# cluster and read off the carrier (``node.controlplane``).
# ---------------------------------------------------------------------------

#: The engines that batch reports.  Under "sequencer" node x (first in
#: NODES) is the sequencer, so y — where every grant below is made — is a
#: reporter that ships its batch over the wire.
BATCHING_ENGINES = ("acktable", "sequencer")


def control_pair(sim, net, batch=3, interval=0.05, engine="acktable"):
    return StabilizerCluster(
        net,
        config(
            control_batch=batch,
            control_interval_s=interval,
            stabilization_strategy=engine,
        ),
    )


def heard_from_y(cluster, engine, type_id=0):
    """What x has heard of y's grants on x's stream: y's row of x's ACK
    table, or — x being the sequencer — y's slot in its grant floors."""
    x = cluster["x"]
    if engine == "acktable":
        return x.tables["x"].get(1, type_id)
    return x.strategy._floors[(0, type_id)][1]


@pytest.mark.parametrize("engine", BATCHING_ENGINES)
def test_batch_count_triggers_immediate_flush(engine):
    sim, net = build_net()
    cluster = control_pair(sim, net, batch=3, interval=10.0, engine=engine)
    y = cluster["y"]
    for seq in (1, 2, 3):  # same cell re-acked: one pending entry, no flush
        y.strategy.grant_local("x", 0, seq)
    assert y.controlplane.frames_sent == 0  # distinct pending cells: 1, not 3
    y.strategy.grant_local("x", 1, 3)
    y.strategy.grant_local("y", 0, 1)  # third distinct cell hits the batch limit
    assert y.controlplane.frames_sent >= 1  # flushed without waiting 10 s
    sim.run(until=0.1)
    # x received the cumulative report: it has y at 3.
    assert heard_from_y(cluster, engine) == 3


@pytest.mark.parametrize("engine", BATCHING_ENGINES)
def test_interval_timer_flushes_partial_batch(engine):
    sim, net = build_net()
    cluster = control_pair(sim, net, batch=100, interval=0.02, engine=engine)
    y = cluster["y"]
    y.strategy.grant_local("x", 0, 1)
    assert y.controlplane.frames_sent == 0  # batched, not yet flushed
    sim.run(until=0.1)
    assert y.controlplane.frames_sent >= 1
    assert heard_from_y(cluster, engine) == 1


@pytest.mark.parametrize("engine", BATCHING_ENGINES)
def test_stale_ack_produces_no_traffic(engine):
    sim, net = build_net()
    cluster = control_pair(sim, net, batch=1, engine=engine)
    y = cluster["y"]
    y.strategy.grant_local("x", 0, 5)
    sim.run(until=0.1)
    frames = y.controlplane.frames_sent
    assert frames >= 1
    y.strategy.grant_local("x", 0, 4)  # stale: monotonic overwrite
    y.strategy.grant_local("x", 0, 5)  # duplicate
    sim.run(until=0.2)
    assert y.controlplane.frames_sent == frames


def test_origin_fanout_targets_only_the_origin():
    """Derived, not set: an unobserving peer receives no live report, the
    origin does."""
    sim, net = build_net()
    cluster = control_pair(sim, net, batch=1)
    x, y = cluster["x"], cluster["y"]
    sim.run(until=0.01)  # the start-up interest announcements have landed
    assert y.controlplane.observers == {"x": ["x"], "y": []}
    y.strategy.grant_local("x", 0, 7)
    sim.run(until=0.1)
    assert x.tables["x"].get(1, 0) == 7
    # x observes its own stream only, so reporting about y's own sends
    # nothing — and says so in the counter.
    frames = y.controlplane.frames_sent
    y.strategy.grant_local("y", 0, 1)
    sim.run(until=0.2)
    assert y.controlplane.frames_sent == frames
    assert y.stats()["strategy.acktable.reports_withheld"] == 1
    assert x.tables["y"].get(1, 0) == 0
    # Anti-entropy tells x anyway, at heartbeat cadence.
    sim.run(until=0.2 + y.controlplane.heartbeat_interval)
    assert x.tables["y"].get(1, 0) == 1


def test_heartbeats_flow_only_when_idle():
    sim, net = build_net()
    cluster = control_pair(sim, net, batch=1)
    y = cluster["y"]
    sim.run(until=10.0)  # idle: heartbeats keep flowing
    assert y.controlplane.frames_sent > 2
    y.strategy.close()  # the engine and its carrier; the endpoint stays bound
    sent = y.controlplane.frames_sent
    sim.run(until=20.0)
    assert y.controlplane.frames_sent == sent  # closed: silence


def test_unknown_origin_rejected():
    sim, net = build_net()
    cluster = control_pair(sim, net)
    with pytest.raises(StabilizerError, match="unknown origin"):
        cluster["y"].strategy.grant_local("nowhere", 0, 1)
