"""The drivers' shared primitives, held to what the drivers rely on."""

from repro.bench.runners.kit import (
    StabilityProbe,
    build_cluster,
    build_network,
    count_calls,
    drain,
)
from repro.net.tc import NetemSpec
from repro.net.topology import Topology
from repro.transport.chunker import CHUNK_BYTES
from repro.transport.messages import SyntheticPayload


def _pair():
    topo = Topology.uniform(
        {"a": "east", "b": "west"}, NetemSpec(latency_ms=10, rate_mbit=100)
    )
    sim, net = build_network(topo)
    return sim, build_cluster(net, {"far": "MAX($ALLWNODES - $MYWNODE)"})


def test_probe_stamps_every_chunk_and_samples_only_its_own_sends():
    sim, cluster = _pair()
    sender = cluster["a"]
    sender.send(SyntheticPayload(64))  # before the probe: seq 1, unstamped
    probe = StabilityProbe(sim, sender, ["far"])
    cluster["b"].send(SyntheticPayload(64))  # another origin's stream
    sim.run(until=0.5)
    assert probe.send(SyntheticPayload(3 * CHUNK_BYTES)) == 4  # seqs 2, 3, 4
    sim.run(until=2.0)
    samples = probe.samples["far"]
    assert [s.seq for s in samples] == [2, 3, 4]
    for sample in samples:
        assert sample.sent == 0.5
        assert sample.latency == sample.stable - 0.5 > 0.02  # a round trip
    assert [s.stable for s in samples] == sorted(s.stable for s in samples)


def test_probe_sends_through_a_given_callable():
    sim, cluster = _pair()
    sent = []

    def publish(payload):
        sent.append(payload)
        return cluster["a"].send(payload)

    probe = StabilityProbe(sim, cluster["a"], ["far"], send=publish)
    probe.send(SyntheticPayload(64))
    sim.run(until=1.0)
    assert len(sent) == 1 and [s.seq for s in probe.samples["far"]] == [1]


def test_drain_asks_once_per_slice_and_once_at_the_end():
    sim, _cluster = _pair()
    asked, sliced = [], []

    def converged():
        asked.append(sim.now)
        return sim.now >= 2.0

    assert drain(sim, converged, slice_s=1.0, on_slice=lambda: sliced.append(sim.now))
    assert asked == [0.0, 1.0, 2.0, 2.0] and sliced == [1.0, 2.0]
    assert not drain(sim, lambda: False, slice_s=0.5, max_slices=3)
    assert sim.now == 3.5


def test_count_calls_is_exact():
    def work(n):
        return [abs(i) for i in range(n)]

    first = count_calls(work, 10)
    assert first == count_calls(work, 10)
    result, calls = first
    assert result == list(range(10)) and calls >= 11  # work + ten abs()
    assert count_calls(work, 20)[1] == calls + 10
