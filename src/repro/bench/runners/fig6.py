"""Fig. 6: per-file synchronization time, Stabilizer predicates vs Paxos."""

from __future__ import annotations

import math
from argparse import ArgumentTypeError
from typing import Dict, List, Sequence

from repro.bench.paper import Arg, Experiment, finding
from repro.bench.reporting import format_table
from repro.bench.runners.kit import build_cluster, build_network
from repro.bench.topologies import EC2_SENDER, ec2_topology
from repro.dsl.stdlib import standard_predicates
from repro.paxos import PaxosCluster
from repro.sim.monitor import mean
from repro.transport.chunker import CHUNK_BYTES
from repro.transport.messages import SyntheticPayload

FIG6_PREDICATES = ("MajorityRegions", "MajorityWNodes", "OneWNode")
SIZES = tuple(10**e for e in range(3, 9))  # 1 KB .. 100 MB


def file_sync_time_stabilizer(size_bytes: int, predicate_key: str) -> float:
    """Time to synchronize one file under one predicate, on an idle WAN."""
    topo = ec2_topology()
    sim, net = build_network(topo)
    predicates = standard_predicates(topo.groups(), EC2_SENDER)
    cluster = build_cluster(net, predicates, control_interval_s=0.002)
    sender = cluster[EC2_SENDER]
    start = sim.now
    seq = sender.send(SyntheticPayload(size_bytes))
    done = sender.waitfor(seq, predicate_key)
    sim.run_until_triggered(done, limit=3600.0)
    return sim.now - start


def file_sync_time_paxos(size_bytes: int, window: int = 128) -> float:
    """Time for Multi-Paxos to commit one file (split into 8 KB commands)."""
    topo = ec2_topology()
    sim, net = build_network(topo)
    cluster = PaxosCluster(net, leader=EC2_SENDER, window=window)
    warmup = cluster.submit(SyntheticPayload(64))
    sim.run_until_triggered(warmup, limit=10.0)  # Phase 1 out of the way
    chunks = max(1, math.ceil(size_bytes / CHUNK_BYTES))
    start = sim.now
    events = [
        cluster["NC-1"].submit(SyntheticPayload(min(CHUNK_BYTES, size_bytes)))
        for _ in range(chunks)
    ]
    last = events[-1]
    sim.run_until_triggered(last, limit=start + 3600.0)
    return sim.now - start


def run_file_sync(
    sizes_bytes: Sequence[int] = SIZES,
    predicates: Sequence[str] = FIG6_PREDICATES,
) -> Dict[str, object]:
    results: Dict[str, Dict[int, float]] = {key: {} for key in predicates}
    results["PhxPaxos"] = {}
    for size in sizes_bytes:
        for key in predicates:
            results[key][size] = file_sync_time_stabilizer(size, key)
        results["PhxPaxos"][size] = file_sync_time_paxos(size)
    # The paper's headline: MajorityRegions vs PhxPaxos mean improvement.
    improvements = [
        1.0 - results["MajorityRegions"][size] / results["PhxPaxos"][size]
        for size in sizes_bytes
    ]
    return {
        "sync_time_s": results,
        "improvement_vs_paxos": mean(improvements),
        "sizes": list(sizes_bytes),
    }


def _sizes_up_to(text: str) -> List[int]:
    sizes = [size for size in SIZES if size <= float(text)]
    if not sizes:
        raise ArgumentTypeError(f"no file size fits: the smallest is {SIZES[0]} bytes")
    return sizes


def render(result) -> str:
    sync = result["sync_time_s"]
    systems = ["OneWNode", "MajorityRegions", "MajorityWNodes", "PhxPaxos"]
    rows = [
        [size] + [f"{sync[system][size] * 1e3:.1f}" for system in systems]
        for size in result["sizes"]
    ]
    table = format_table(
        ["file bytes"] + [f"{system} ms" for system in systems],
        rows,
        title="Fig. 6: file synchronization time (one file at a time)",
    )
    return (
        f"{table}\nMajorityRegions vs PhxPaxos mean improvement: "
        f"{result['improvement_vs_paxos'] * 100:.1f}% (paper: 24.75%)"
    )


def _at_every_size(result, holds) -> bool:
    """``holds(sync, size)`` at every size of the sweep — of which there
    must be one: an empty sweep reproduces nothing."""
    sizes = result["sizes"]
    return bool(sizes) and all(holds(result["sync_time_s"], size) for size in sizes)


@finding(
    "OneWNode beats MajorityRegions at every size",
    "the weakest level synchronizes first",
)
def _weakest_first(result):
    sync, largest = result["sync_time_s"], result["sizes"][-1]
    holds = _at_every_size(
        result, lambda s, n: s["OneWNode"][n] < s["MajorityRegions"][n]
    )
    one, regions = sync["OneWNode"][largest], sync["MajorityRegions"][largest]
    return holds, f"{one:.2f}s vs {regions:.2f}s at {largest} bytes"


@finding("MajorityRegions beats PhxPaxos at every size", "24.75% mean improvement")
def _beats_paxos(result):
    improvement = result["improvement_vs_paxos"]
    holds = improvement > 0.10 and _at_every_size(
        result, lambda s, n: s["MajorityRegions"][n] < s["PhxPaxos"][n]
    )
    return holds, f"{improvement * 100:.1f}% mean improvement"


@finding("PhxPaxos overlaps MajorityWNodes", "the two curves mostly overlap")
def _overlaps(result):
    def apart(sync, size):  # over the faster of the two
        paxos, wnodes = sync["PhxPaxos"][size], sync["MajorityWNodes"][size]
        return abs(paxos - wnodes) / min(paxos, wnodes)

    worst = max(apart(result["sync_time_s"], size) for size in result["sizes"])
    return worst <= 0.25, f"at most {worst:.1%} apart"


@finding(
    "gap grows with file size", "difference becomes larger as the file becomes larger"
)
def _gap_grows(result):
    sync = result["sync_time_s"]
    small, large = (
        sync["PhxPaxos"][size] - sync["MajorityRegions"][size]
        for size in (result["sizes"][0], result["sizes"][-1])
    )
    return large > small, f"gap {small * 1e3:.1f} ms -> {large * 1e3:.1f} ms"


EXPERIMENT = Experiment(
    name="fig6",
    help="Fig. 6 file sync vs Paxos",
    run=run_file_sync,
    args=(Arg("--max-size", "sizes_bytes", _sizes_up_to, "1e7"),),
    scales={
        "report": {"sizes_bytes": (10**3, 10**5, 10**7)},
        "default": {"sizes_bytes": SIZES[:-1]},
        "full": {"sizes_bytes": SIZES},
    },
    render=render,
    expectations=(_weakest_first, _beats_paxos, _overlaps, _gap_grows),
)
