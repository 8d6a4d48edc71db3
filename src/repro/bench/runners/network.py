"""Tables I and II: the emulated network matches the published matrix."""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.bench.paper import Experiment, finding
from repro.bench.reporting import format_table
from repro.bench.runners.kit import build_network
from repro.bench.topologies import (
    CLOUDLAB_NODES,
    CLOUDLAB_SENDER,
    EC2_NODES,
    EC2_SENDER,
    TABLE1_OBSERVED,
    TABLE2_OBSERVED,
    cloudlab_topology,
    ec2_topology,
)
from repro.net.probe import network_matrix
from repro.net.topology import Topology


def run_network_matrix(topology: Topology, src: str) -> Dict[str, Dict[str, float]]:
    """RTT + throughput from ``src`` to every node (probe-measured)."""
    _sim, net = build_network(topology)
    return network_matrix(net, src, ping_count=5)


def _table(
    name: str,
    help: str,
    title: str,
    topology: Callable[[], Topology],
    src: str,
    sites: Dict[str, str],
    paper: Dict[str, Tuple[float, float]],  # node -> (RTT ms, Mbit/s)
    rate_tolerance: float,
) -> Experiment:
    def render(matrix) -> str:
        rows = [
            (
                node,
                sites[node],
                f"{paper[node][0]:.3f}",
                f"{measured['rtt_ms']:.3f}",
                f"{paper[node][1]:.2f}",
                f"{measured['throughput_mbit']:.2f}",
            )
            for node, measured in matrix.items()
        ]
        headers = ["node", "site", "paper RTT ms", "measured RTT ms"]
        return format_table(
            headers + ["paper Mbit/s", "measured Mbit/s"], rows, title=title
        )

    def within(metric: str, field: str, column: int, tolerance: float):
        values = {node: row[column] for node, row in paper.items()}
        reported = " / ".join(f"{v:g}" for v in dict.fromkeys(values.values()))

        @finding(metric, reported, kind="exact")
        def check(matrix):
            # The largest relative deviation over every node the paper reports.
            worst = max(abs(matrix[n][field] - v) / v for n, v in values.items())
            return worst <= tolerance, f"within {worst:.2%} (tolerance {tolerance:.0%})"

        return check

    rate = f"throughput from {src} to every node (Mbit/s)"
    return Experiment(
        name=name,
        help=help,
        run=lambda: run_network_matrix(topology(), src),
        args=(),
        scales={"report": {}, "default": {}, "full": {}},
        render=render,
        expectations=(
            within(f"RTT from {src} to every node (ms)", "rtt_ms", 0, 0.05),
            within(rate, "throughput_mbit", 1, rate_tolerance),
        ),
    )


# Latency injected, bandwidth throttled to half the observed figure; the
# table has one row per region, so the per-node spread is switched off.
TABLE1 = _table(
    "table1",
    "Table I network matrix",
    "Table I: network status between North California and other regions",
    lambda: ec2_topology(heterogeneity=False),
    EC2_SENDER,
    EC2_NODES,
    {
        node: (TABLE1_OBSERVED[region][0], TABLE1_OBSERVED[region][2])
        for node, region in EC2_NODES.items()
        if node != EC2_SENDER
    },
    0.05,
)

TABLE2 = _table(
    "table2",
    "Table II CloudLab matrix",
    "Table II: network performance between Utah1 and other servers",
    cloudlab_topology,
    CLOUDLAB_SENDER,
    CLOUDLAB_NODES,
    {site: (rtt, rate) for site, (rate, rtt) in TABLE2_OBSERVED.items()},
    0.10,
)
