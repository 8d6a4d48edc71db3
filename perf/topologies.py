"""The benchmark's network inputs, declared through ``Topology``/``NetemSpec``.

They are the benchmark's own copies of the paper's two environments so
that a refactor of ``repro.bench`` cannot change what is measured, and so
that ``lossy_wan`` can put loss and jitter on every directed link.
"""

from repro import NetemSpec, Topology

CLOUDLAB_SENDER = "UT1"
# Table II: server -> (site, Mbit/s, RTT ms) as measured from UT1.
_CLOUDLAB = {
    "UT1": ("Utah", None, None),
    "UT2": ("Utah", 9246.99, 0.124),
    "WI": ("Wisconsin", 361.82, 35.612),
    "CLEM": ("Clemson", 416.27, 50.918),
    "MA": ("Massachusetts", 437.11, 48.083),
}

EC2_SENDER = "NC-1"
# Table I: region -> (RTT ms from North California, halved Mbit/s).
_EC2_REGIONS = {
    "North California": (3.7, 333.5),
    "North Virginia": (64.12, 37.0),
    "Oregon": (23.29, 56.5),
    "Ohio": (53.87, 44.5),
}
_EC2_NODES = {
    "NC-1": "North California",
    "NC-2": "North California",
    "NV-1": "North Virginia",
    "NV-2": "North Virginia",
    "NV-3": "North Virginia",
    "NV-4": "North Virginia",
    "Oregon-1": "Oregon",
    "Ohio-1": "Ohio",
}
# A few percent of per-node bandwidth spread inside a region, by position:
# it is what separates AllWNodes from MajorityWNodes in the paper's Fig. 5.
_EC2_SPREAD = (1.06, 1.01, 0.97, 0.93)


def _mesh(topo, names, leg, loss_rate=0.0, jitter_ms=0.0):
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            latency_ms, rate_mbit = leg(a, b)
            topo.set_link_symmetric(
                a, b, NetemSpec(latency_ms, rate_mbit, jitter_ms, loss_rate)
            )
    return topo


def cloudlab(loss_rate=0.0, jitter_ms=0.0):
    """CloudLab, Table II: five servers, the sender and a LAN peer in Utah
    and three sites across the WAN.  Links the paper does not report take
    the worse latency and bandwidth of the two sender legs."""
    topo = Topology("cloudlab")
    for name, (site, _rate, _rtt) in _CLOUDLAB.items():
        topo.add_node(name, site)

    def leg(a, b):
        far = [n for n in (a, b) if n not in ("UT1", "UT2")] or [b]
        rates = [_CLOUDLAB[n][1] for n in far]
        rtts = [_CLOUDLAB[n][2] for n in far]
        return max(rtts) / 2.0, min(rates)

    return _mesh(topo, list(_CLOUDLAB), leg, loss_rate, jitter_ms)


def ec2():
    """The EC2 emulation of Table I / Fig. 2: eight servers in four regions,
    bandwidth throttled to half the observed figures."""
    topo = Topology("ec2-emulation")
    for name, region in _EC2_NODES.items():
        topo.add_node(name, region)

    def spread(name):
        peers = [n for n, r in _EC2_NODES.items() if r == _EC2_NODES[name]]
        return _EC2_SPREAD[peers.index(name)]

    def leg(a, b):
        ra, rb = _EC2_NODES[a], _EC2_NODES[b]
        if ra == rb:
            # The "between zones in North California" row stands in for
            # every region's internal links.
            legs = [_EC2_REGIONS["North California"]]
        else:
            legs = [_EC2_REGIONS[r] for r in (ra, rb) if r != "North California"]
        rtt = max(l[0] for l in legs)
        rate = min(l[1] for l in legs)
        return rtt / 2.0, rate * min(spread(a), spread(b))

    return _mesh(topo, list(_EC2_NODES), leg)


def zones(azs, nodes_per_az):
    """``azs`` availability zones of ``nodes_per_az`` nodes each; every link
    is 10 ms one way at 100 Mbit/s, so each send meets the same path."""
    topo = Topology(f"{azs}az")
    for az in range(azs):
        for k in range(nodes_per_az):
            topo.add_node(f"n{az}{k}", f"az{az}")
    topo.set_default(NetemSpec(latency_ms=10.0, rate_mbit=100.0))
    return topo
