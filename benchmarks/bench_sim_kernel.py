"""Engineering microbenchmarks: the substrate's own hot paths.

Not a paper artifact — these track the simulator's cost per event, the
link model's cost per packet and the transport's per-frame overhead, so
substrate regressions that would inflate every experiment's wall time are
caught in review.
"""

from repro.bench import format_table
from repro.bench.runners import kernel_calls_per_event
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.transport import SyntheticPayload, TransportEndpoint


LAN = NetemSpec(latency_ms=1, rate_mbit=10_000)


def test_kernel_event_dispatch(benchmark, report):
    def run_1000_timers():
        sim = Simulator()
        state = {"count": 0}
        for i in range(1000):
            sim.call_later(i * 0.001, lambda: state.__setitem__("count", state["count"] + 1))
        sim.run()
        return state["count"]

    assert benchmark(run_1000_timers) == 1000
    # The same loop's host cost in exact Python calls (tier-1 gates it).
    calls = kernel_calls_per_event(1000)
    report.add(
        format_table(
            ["events", "calls/event"],
            [(1000, f"{calls:.2f}")],
            title="Kernel: Python calls per fire-and-forget timer event",
        )
    )
    report.add_data("calls_per_event", calls)


def test_link_packet_cost(benchmark):
    topo = Topology.uniform({"a": "g", "b": "g"}, LAN)

    def run_1000_packets():
        sim = Simulator()
        net = topo.build(sim)
        seen = {"count": 0}
        net.host("b").bind("x", lambda p: seen.__setitem__("count", seen["count"] + 1))
        for _ in range(1000):
            net.send("a", "b", "x", b"", 100)
        sim.run()
        return seen["count"]

    assert benchmark(run_1000_packets) == 1000


def test_transport_frame_cost(benchmark):
    topo = Topology.uniform({"a": "g", "b": "g"}, LAN)

    def run_500_frames():
        sim = Simulator()
        net = topo.build(sim)
        sender = TransportEndpoint(net, "a").channel("b", "s")
        receiver = TransportEndpoint(net, "b").channel("a", "s")
        seen = {"count": 0}
        receiver.on_deliver = lambda p, m: seen.__setitem__("count", seen["count"] + 1)
        for _ in range(500):
            sender.send(SyntheticPayload(512))
        sim.run(until=5.0)
        return seen["count"]

    assert benchmark(run_500_frames) == 500
