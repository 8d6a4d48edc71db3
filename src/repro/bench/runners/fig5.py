"""Fig. 5: trace-driven stability-frontier latency."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.bench.analysis import instruments_agree, spike_count
from repro.bench.paper import Arg, Experiment, finding, positive_float
from repro.bench.reporting import format_series, format_table
from repro.bench.runners.kit import (
    StabilityProbe,
    build_cluster,
    build_network,
    replay_trace,
)
from repro.bench.topologies import EC2_SENDER, ec2_topology
from repro.dsl.stdlib import standard_predicates
from repro.sim.monitor import Series
from repro.workloads.dropbox_trace import TraceRecord, synthesize_trace

#: The six predicates, weakest first.
ORDER = (
    "OneWNode",
    "OneRegion",
    "MajorityRegions",
    "AllRegions",
    "MajorityWNodes",
    "AllWNodes",
)


def run_trace_experiment(
    scale: float = 0.05,
    seed: int = 7,
    record_every: int = 1,
    trace: Optional[Sequence[TraceRecord]] = None,
) -> Dict[str, object]:
    """Replay the Dropbox trace on the EC2 emulation; for each of the six
    Table III predicates, record when each message first satisfied it."""
    records = list(trace) if trace is not None else synthesize_trace(scale, seed)
    topo = ec2_topology()
    sim, net = build_network(topo)
    predicates = standard_predicates(topo.groups(), EC2_SENDER)
    cluster = build_cluster(net, control_interval_s=0.01, control_batch=64)
    sender = cluster[EC2_SENDER]
    for key, source in predicates.items():
        sender.register_predicate(key, source)
    probe = StabilityProbe(sim, sender, predicates)
    replay = replay_trace(sim, records, probe.send)
    sim.run_until_triggered(replay, limit=1e9)
    # Drain: strongest predicate must cover the last chunk.
    last_seq = sender.last_sent_seq()
    done = sender.waitfor(last_seq, "AllWNodes")
    sim.run_until_triggered(done, limit=sim.now + 600.0)
    sim.run(until=sim.now + 1.0)
    results = {key: Series(key) for key in predicates}
    for key in predicates:
        # Popped: at full scale the six sample lists are 3 M tuples, and
        # each can go as soon as its series exists.
        for sample in probe.samples.pop(key):
            if (sample.seq - 1) % record_every == 0:
                results[key].record(sample.seq, sample.latency)
    return {
        "series": results,
        "messages": last_seq,
        "trace_files": len(records),
        "duration_s": sim.now,
        # Independent measurement of the same delays, from the sender's
        # built-in stability instruments (send() stamps, frontier-advance
        # hook) — the last finding below cross-checks the two within 1%.
        "obs_stability": {
            key: sender.stability.summary(key) for key in predicates
        },
    }


STRONG = ("MajorityWNodes", "AllWNodes", "AllRegions")


def _spikes(result, key: str) -> int:
    return spike_count(result["series"][key].downsample(200))


def render(result) -> str:
    series = result["series"]
    rows = [
        (
            key,
            len(series[key]),
            f"{series[key].mean():.3f}",
            f"{series[key].percentile(99):.3f}",
            f"{series[key].max():.3f}",
            _spikes(result, key),
        )
        for key in ORDER
    ]
    title = (
        f"Fig. 5: first-satisfaction latency per predicate "
        f"({result['messages']} messages from {result['trace_files']} sync requests)"
    )
    headers = ["predicate", "messages", "mean s", "p99 s", "max s", "spikes"]
    plots = [
        format_series(
            list(series[key].downsample(24)),
            x_label="message seq",
            y_label="latency s",
            title=f"\nFig. 5 — {key} (mean {series[key].mean():.3f}s)",
        )
        for key in ORDER
    ]
    return "\n".join([format_table(headers, rows, title=title)] + plots)


@finding(
    "strength ordering of mean latency", "weaker levels less impacted than stronger"
)
def _ordered(result):
    m = {key: result["series"][key].mean() for key in ORDER}
    regions = ("OneWNode", "OneRegion", "MajorityRegions", "AllRegions", "AllWNodes")
    nodes = ("MajorityRegions", "MajorityWNodes", "AllWNodes")
    holds = all(
        m[weaker] <= m[stronger]
        for chain in (regions, nodes)
        for weaker, stronger in zip(chain, chain[1:])
    )
    shown = ("OneWNode", "MajorityRegions", "AllWNodes")
    return holds, " <= ".join(f"{key}:{m[key]:.2f}s" for key in shown)


@finding(
    "MajorityWNodes more vulnerable than MajorityRegions",
    "MajorityWNodes > MajorityRegions under spikes",
)
def _node_majority_suffers(result):
    nodes = result["series"]["MajorityWNodes"].mean()
    regions = result["series"]["MajorityRegions"].mean()
    return nodes > regions, f"{nodes:.2f}s vs {regions:.2f}s"


# Three in the paper; adjacent spikes can merge — or a big small-file
# burst can add one — depending on how the synthetic trace's queues drain.
@finding(
    "huge-file load spikes in the strong predicates",
    "three latency spikes, one per huge file",
)
def _spiky(result):
    spikes = {key: _spikes(result, key) for key in STRONG}
    measured = ", ".join(f"{key}:{n}" for key, n in spikes.items())
    return all(2 <= n <= 6 for n in spikes.values()), measured


@finding(
    "probe agrees with the sender's built-in instruments",
    "(harness cross-check: same count, mean within 1%)",
    kind="exact",
)
def _instruments_agree(result):
    return instruments_agree(
        (key, result["series"][key], result["obs_stability"][key]) for key in ORDER
    )


EXPERIMENT = Experiment(
    name="fig5",
    help="Fig. 5 trace-driven frontier latency",
    run=run_trace_experiment,
    args=(Arg("--scale", "scale", positive_float, "0.05"),),
    # The report runs at the bench's scale: below it the three huge
    # files' queues merge into one spike (1 / 1 / 2 at scale 0.02) and
    # the spike finding has nothing to count.
    scales={
        "report": {"scale": 0.05},
        "default": {"scale": 0.05},
        "full": {"scale": 1.0},
    },
    render=render,
    expectations=(_ordered, _node_majority_suffers, _spiky, _instruments_agree),
)
