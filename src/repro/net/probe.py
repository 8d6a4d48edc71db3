"""Ping / iperf style probes over a live :class:`~repro.net.topology.Network`.

Used by the Table I / Table II benchmarks to demonstrate that the emulated
network matches the paper's measured latency and throughput matrix, the same
way the authors validated their ``tc`` setup.
"""

from __future__ import annotations

from typing import Dict

from repro.net.topology import Network
from repro.sim.monitor import Histogram

PING_PORT = "probe.ping"
IPERF_PORT = "probe.iperf"
#: The size of one throughput-probe packet.
IPERF_PACKET_BYTES = 8192
PING_SIZE_BYTES = 64


def measure_rtt(net: Network, src: str, dst: str, count: int = 10) -> Histogram:
    """Ping ``dst`` from ``src`` ``count`` times; returns RTT samples (s).

    Pings are sequential (each waits for its echo), like the ``ping`` tool.
    """
    sim = net.sim
    rtts = Histogram(f"rtt:{src}->{dst}")
    state = {"sent_at": 0.0, "remaining": count}
    done = sim.event()

    def on_echo_reply(packet) -> None:
        rtts.record(sim.now - state["sent_at"])
        state["remaining"] -= 1
        if state["remaining"] == 0:
            net.host(src).unbind(PING_PORT)
            net.host(dst).unbind(PING_PORT)
            done.succeed()
        else:
            send_ping()

    def on_echo_request(packet) -> None:
        net.send(dst, src, PING_PORT, "echo-reply", PING_SIZE_BYTES)

    def send_ping() -> None:
        state["sent_at"] = sim.now
        net.send(src, dst, PING_PORT, "echo-request", PING_SIZE_BYTES)

    net.host(dst).bind(PING_PORT, on_echo_request)
    net.host(src).bind(PING_PORT, on_echo_reply)
    send_ping()
    sim.run_until_triggered(done)
    return rtts


def measure_throughput(
    net: Network,
    src: str,
    dst: str,
    duration_s: float = 5.0,
) -> float:
    """Blast packets for ``duration_s``; returns goodput in bits/second.

    Mirrors an ``iperf`` run: the sender keeps the link saturated and we
    count the bytes that arrive within the window.
    """
    sim = net.sim
    link = net.link(src, dst)
    start = sim.now
    end = start + duration_s
    received = {"bytes": 0, "last_arrival": start}

    def on_data(packet) -> None:
        received["bytes"] += packet.size_bytes
        received["last_arrival"] = sim.now

    net.host(dst).bind(IPERF_PORT, on_data)

    def feeder():
        # Keep at most a small backlog queued so the run ends promptly.
        while sim.now < end:
            while link.queueing_delay() < 0.05 and sim.now < end:
                net.send(src, dst, IPERF_PORT, b"x", IPERF_PACKET_BYTES)
            yield 0.01

    proc = sim.spawn(feeder(), name=f"iperf:{src}->{dst}")
    proc.add_callback(lambda _event: None)  # watched: crash surfaces via event
    sim.run(until=end + link.latency_s + 1.0)
    net.host(dst).unbind(IPERF_PORT)
    span = received["last_arrival"] - start
    if span <= 0 or received["bytes"] == 0:
        return 0.0
    return received["bytes"] * 8.0 / span


def network_matrix(net: Network, src: str, ping_count: int = 5) -> Dict[str, Dict[str, float]]:
    """RTT + throughput from ``src`` to every other node.

    Returns ``{dst: {"rtt_ms": ..., "throughput_mbit": ...}}`` — the shape
    of the paper's Table I / Table II rows.
    """
    out: Dict[str, Dict[str, float]] = {}
    for dst in net.topology.node_names():
        if dst == src:
            continue
        rtt = measure_rtt(net, src, dst, count=ping_count)
        thp = measure_throughput(net, src, dst, duration_s=2.0)
        out[dst] = {
            "rtt_ms": rtt.mean() * 1e3,
            "throughput_mbit": thp / 1e6,
        }
    return out
