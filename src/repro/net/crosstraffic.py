"""Background cross-traffic flows.

Real WAN links are shared; the paper's testbed saw this as bandwidth
variability.  A :class:`CrossTrafficFlow` occupies a fraction of a link
with a constant packet stream, letting experiments ask how each
consistency model behaves when one region's links congest (the
``cross_traffic`` extension experiment).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import NetworkError
from repro.net.topology import Network

CROSSTRAFFIC_PORT = "crosstraffic"
#: The size of one background packet: an Ethernet MTU.
PACKET_BYTES = 1500


class CrossTrafficFlow:
    """A constant-rate background flow on one directed link."""

    def __init__(
        self,
        net: Network,
        src: str,
        dst: str,
        rate_bps: float,
    ):
        if rate_bps <= 0:
            raise NetworkError("rate must be positive")
        self.net = net
        self.sim = net.sim
        self.src = src
        self.dst = dst
        self.rate_bps = rate_bps
        self._interval = PACKET_BYTES * 8.0 / rate_bps
        self._timer = None
        self._running = False
        self.packets_sent = 0
        host = net.host(dst)
        # A sink handler; several flows to one host share it harmlessly.
        host.bind(CROSSTRAFFIC_PORT, lambda packet: None)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._tick()

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        self._timer = None
        if not self._running:
            return
        self.net.send(self.src, self.dst, CROSSTRAFFIC_PORT, b"", PACKET_BYTES)
        self.packets_sent += 1
        self._timer = self.sim.call_later(self._interval, self._tick)


def congest_region(
    net: Network,
    region: str,
    fraction: float,
    from_node: Optional[str] = None,
) -> list:
    """Start flows occupying ``fraction`` of every link into ``region``.

    ``from_node`` defaults to each link's own source; flows are created
    from every other node toward every node of the region.  Returns the
    started flows (call ``stop()`` to end the congestion episode).
    """
    if not 0 < fraction < 1:
        raise NetworkError("fraction must be in (0, 1)")
    targets = [
        name
        for name in net.topology.node_names()
        if net.topology.node(name).group == region
    ]
    if not targets:
        raise NetworkError(f"no nodes in region {region!r}")
    flows = []
    sources = [from_node] if from_node else net.topology.node_names()
    for dst in targets:
        for src in sources:
            if src == dst or (from_node is None and src in targets):
                continue
            link = net.link(src, dst)
            flow = CrossTrafficFlow(
                net, src, dst, rate_bps=link.bandwidth_bps * fraction
            )
            flow.start()
            flows.append(flow)
    return flows
