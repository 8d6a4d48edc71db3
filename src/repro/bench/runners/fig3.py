"""Fig. 3: quorum read latency vs message size."""

from __future__ import annotations

from typing import Dict, Sequence

from repro.bench.paper import Arg, Experiment, finding, positive_int
from repro.bench.reporting import format_table, ms
from repro.bench.runners.kit import build_cluster, build_network
from repro.bench.topologies import cloudlab_topology
from repro.net.probe import measure_rtt
from repro.sim.monitor import mean
from repro.transport.messages import SyntheticPayload

QUORUM_MEMBERS = ("UT1", "WI", "CLEM")


def run_quorum_read(
    sizes_bytes: Sequence[int] = tuple(1024 * 2**i for i in range(7)),
    reads_per_size: int = 4,
) -> Dict[str, object]:
    """The Fig. 3 experiment: quorum {UT1, WI, CLEM}, Nr = Nw = 2, writer
    at UT2, reader at UT1; returns read latencies and RTT reference lines."""
    from repro.apps import QuorumKV, WanKVStore

    latencies: Dict[int, float] = {}
    for size in sizes_bytes:
        sim, net = build_network(cloudlab_topology())
        cluster = build_cluster(net, control_interval_s=0.001)
        stores = {n: WanKVStore(cluster[n]) for n in net.topology.node_names()}
        quorums = {
            n: QuorumKV(stores[n], list(QUORUM_MEMBERS), nw=2, nr=2)
            for n in net.topology.node_names()
        }
        _result, written = quorums["UT2"].write(f"key-{size}", SyntheticPayload(size))
        sim.run_until_triggered(written, limit=10.0)
        sim.run(until=sim.now + 1.0)  # let all mirrors settle
        samples = []
        for _ in range(reads_per_size):
            start = sim.now
            done = quorums["UT1"].read(f"key-{size}")
            sim.run_until_triggered(done, limit=10.0)
            samples.append(sim.now - start)
            sim.run(until=sim.now + 0.2)
        latencies[size] = mean(samples)
    # RTT reference lines, as measured by ping in the same network.
    _sim, net = build_network(cloudlab_topology())
    rtts = {
        site: measure_rtt(net, "UT1", site, count=3).mean()
        for site in ("UT2", "WI", "CLEM", "MA")
    }
    return {"latency_s": latencies, "rtt_s": rtts}


def render(result) -> str:
    wi = result["rtt_s"]["WI"] * 1e3
    rows = [
        (size // 1024, f"{latency * 1e3:.2f}", f"{wi:.2f}")
        for size, latency in result["latency_s"].items()
    ]
    headers = ["message KB", "read latency ms", "WI RTT ms (paper's reference)"]
    return (
        format_table(headers, rows, title="Fig. 3: quorum read latency vs message size")
        + "\nRTTs from UT1: "
        + ", ".join(f"{site} {ms(rtt)}" for site, rtt in result["rtt_s"].items())
    )


@finding(
    "quorum read latency ~ WI RTT, below CLEM's",
    "~35.6 ms (comparable to Wisconsin's RTT; Clemson's is ~50.9 ms)",
    kind="exact",
)
def _tracks_wi(result):
    wi, clem = result["rtt_s"]["WI"], result["rtt_s"]["CLEM"]
    latencies = list(result["latency_s"].values())
    holds = all(abs(lat - wi) <= 0.25 * wi and lat < clem for lat in latencies)
    return holds, ms(mean(latencies))


@finding("latency rises slightly with size", "slight increase 1 KB -> 64 KB")
def _rises(result):
    latency = result["latency_s"]
    small, large = latency[min(latency)], latency[max(latency)]
    return large > small, f"{ms(small)} -> {ms(large)}"


EXPERIMENT = Experiment(
    name="fig3",
    help="Fig. 3 quorum read latency",
    run=run_quorum_read,
    args=(Arg("--reads", "reads_per_size", positive_int, "4"),),
    scales={
        "report": {"sizes_bytes": (1024, 8192, 65536), "reads_per_size": 3},
        "default": {"reads_per_size": 4},
        "full": {"reads_per_size": 10},
    },
    render=render,
    expectations=(_tracks_wi, _rises),
)
