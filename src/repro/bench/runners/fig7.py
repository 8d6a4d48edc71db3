"""Fig. 7: pub/sub latency and throughput vs sending rate, Stabilizer
prototype vs the Pulsar model."""

from __future__ import annotations

from argparse import ArgumentTypeError
from typing import Dict, List, Sequence, Tuple

from repro.bench.analysis import saturation_knee
from repro.bench.paper import Arg, Experiment, finding, positive_int
from repro.bench.reporting import format_table
from repro.bench.runners.kit import StabilityProbe, build_cluster, build_network
from repro.bench.topologies import (
    CLOUDLAB_SENDER,
    TABLE2_OBSERVED,
    cloudlab_topology,
)
from repro.pubsub import PulsarCluster, StabilizerBroker
from repro.sim.monitor import mean
from repro.transport.messages import SyntheticPayload
from repro.workloads.rates import constant_rate

PUBSUB_SITES = ("UT2", "WI", "CLEM", "MA")
WAN_SITES = PUBSUB_SITES[1:]
PUBSUB_MESSAGE_BYTES = 8 * 1024
RATES = (250, 500, 1000, 2000, 4000, 8000, 16000)


def _pubsub_stats(
    latencies: Dict[str, List[float]],
    arrivals: Dict[str, List[float]],
    start: float,
) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for site in PUBSUB_SITES:
        lats = latencies[site]
        site_arrivals = arrivals.get(site, [])
        if site_arrivals:
            span = max(site_arrivals[-1] - start, 1e-9)
            thp = len(site_arrivals) * PUBSUB_MESSAGE_BYTES * 8.0 / span
        else:
            thp = 0.0
        out[site] = {
            "latency_ms": mean(lats) * 1e3 if lats else float("nan"),
            "delivered": float(len(site_arrivals)),
            "throughput_mbit": thp / 1e6,
        }
    return out


def _record_arrivals(sim, brokers) -> Dict[str, List[float]]:
    """Subscribe at every site; returns site -> arrival times, filling."""
    arrivals: Dict[str, List[float]] = {site: [] for site in PUBSUB_SITES}
    for site in PUBSUB_SITES:
        brokers[site].subscribe(
            lambda origin, seq, payload, meta, _s=site: arrivals[_s].append(sim.now)
        )
    return arrivals


def _publish(sim, rate: float, messages: int, publish) -> float:
    """Publish ``messages`` at ``rate`` and run well past the last one;
    returns the start time."""
    start = sim.now
    constant_rate(
        sim, rate, messages, lambda i: publish(SyntheticPayload(PUBSUB_MESSAGE_BYTES))
    )
    sim.run(until=start + messages / rate + 120.0)
    return start


def run_pubsub_stabilizer(rate: float, messages: int) -> Dict[str, Dict[str, float]]:
    sim, net = build_network(cloudlab_topology())
    cluster = build_cluster(net, control_interval_s=0.0002, control_batch=2)
    brokers = {n: StabilizerBroker(cluster[n]) for n in net.topology.node_names()}
    arrivals = _record_arrivals(sim, brokers)
    sim.run(until=1.0)  # let subscriptions spread
    publisher = brokers[CLOUDLAB_SENDER]
    # Publisher-side per-site ack tracking, through per-site predicates.
    keys = {site: f"site_{site}" for site in PUBSUB_SITES}
    for site, key in keys.items():
        publisher.stabilizer.register_predicate(key, f"MAX($WNODE_{site})")
    probe = StabilityProbe(
        sim, publisher.stabilizer, keys.values(), send=publisher.publish
    )
    start = _publish(sim, rate, messages, probe.send)
    latencies = {
        site: [sample.latency for sample in probe.samples[key]]
        for site, key in keys.items()
    }
    return _pubsub_stats(latencies, arrivals, start)


def run_pubsub_pulsar(
    rate: float, messages: int, gc_enabled: bool = True
) -> Dict[str, Dict[str, float]]:
    sim, net = build_network(cloudlab_topology())
    cluster = PulsarCluster(net, gc_enabled=gc_enabled, buffer_fix=True)
    arrivals = _record_arrivals(sim, cluster)
    publisher = cluster[CLOUDLAB_SENDER]
    start = _publish(sim, rate, messages, publisher.publish)
    latencies = {
        site: [
            publisher.ack_times[(site, seq)] - sent
            for seq, sent in publisher.send_times.items()
            if (site, seq) in publisher.ack_times
        ]
        for site in PUBSUB_SITES
    }
    return _pubsub_stats(latencies, arrivals, start)


def run_pubsub_sweep(
    rates: Sequence[float] = RATES,
    messages: int = 2000,
) -> Dict[str, Dict[float, Dict[str, Dict[str, float]]]]:
    return {
        "stabilizer": {r: run_pubsub_stabilizer(r, messages) for r in rates},
        "pulsar": {r: run_pubsub_pulsar(r, messages) for r in rates},
    }


def _rates(text: str) -> Tuple[float, ...]:
    rates = tuple(float(part) for part in text.split(",") if part.strip())
    if not rates or min(rates) <= 0:
        raise ArgumentTypeError(
            f"need at least one positive rate (comma-separated), got {text!r}"
        )
    return rates


def render(sweep) -> str:
    columns = [(system, site) for system in sweep for site in PUBSUB_SITES]
    tables = [
        format_table(
            ["rate msg/s"] + [f"{system}-{site}" for system, site in columns],
            [
                [int(rate)]
                + [f"{sweep[sys][rate][site][metric]:.2f}" for sys, site in columns]
                for rate in sweep["stabilizer"]
            ],
            title=f"Fig. 7 {metric} ({unit})",
        )
        for metric, unit in (("latency_ms", "ms"), ("throughput_mbit", "Mbit/s"))
    ]
    return "\n\n".join(tables)


def _plateau(sweep, system: str, site: str) -> float:
    """The highest throughput ``site`` saw from ``system`` at any rate."""
    return max(at[site]["throughput_mbit"] for at in sweep[system].values())


def _latency(sweep, system: str, site: str) -> List[float]:
    """``site``'s latency per rate, slowest rate first."""
    return [sweep[system][rate][site]["latency_ms"] for rate in sorted(sweep[system])]


@finding(
    "identical WAN throughput bottleneck",
    "both systems bottleneck at the same throughput",
)
def _same_bottleneck(sweep):
    ours = {site: _plateau(sweep, "stabilizer", site) for site in WAN_SITES}
    holds = all(
        abs(ours[site] - _plateau(sweep, "pulsar", site)) / ours[site] < 0.1
        for site in WAN_SITES
    )
    return holds, ", ".join(f"{site}:{top:.0f}Mbit" for site, top in ours.items())


@finding(
    "bottleneck close to the physical bandwidth",
    "Table II: "
    + ", ".join(f"{site}:{TABLE2_OBSERVED[site][0]:.0f}Mbit" for site in WAN_SITES),
)
def _saturates_the_link(sweep):
    share = {
        site: _plateau(sweep, "stabilizer", site) / TABLE2_OBSERVED[site][0]
        for site in WAN_SITES
    }
    measured = ", ".join(f"{site}:{s:.0%}" for site, s in share.items())
    return all(s > 0.75 for s in share.values()), measured


@finding(
    "WAN latency rises sharply past saturation",
    "latency rises sharply once the rate exceeds the bandwidth",
)
def _knees(sweep):
    # Per WAN site, the first rate whose latency is more than twice the
    # lowest rate's (None: the curve never takes off).
    rates = sorted(sweep["stabilizer"])
    knees = {
        site: saturation_knee(rates, _latency(sweep, "stabilizer", site))
        for site in WAN_SITES
    }
    measured = ", ".join(f"{site}:{knee} msg/s" for site, knee in knees.items())
    return None not in knees.values(), f"more than doubles from {measured}"


@finding(
    "Pulsar LAN latency grows with rate (GC), Stabilizer flat",
    "Pulsar shows growth in latency on LAN",
)
def _lan(sweep):
    pulsar = _latency(sweep, "pulsar", "UT2")
    ours = _latency(sweep, "stabilizer", "UT2")
    measured = (
        f"pulsar {pulsar[0]:.2f} -> {pulsar[-1]:.2f} ms; "
        f"stabilizer {ours[0]:.2f} -> {ours[-1]:.2f} ms"
    )
    return pulsar[-1] > 3 * pulsar[0] and ours[-1] < 2 * ours[0], measured


@finding(
    "Stabilizer as fast or faster at the saturated rate",
    "Stabilizer is as fast or faster than Pulsar in all scenarios",
)
def _as_fast(sweep):
    top = {
        site: [_latency(sweep, system, site)[-1] for system in ("stabilizer", "pulsar")]
        for site in PUBSUB_SITES
    }
    measured = ", ".join(f"{site}:{a:.0f}/{b:.0f}ms" for site, (a, b) in top.items())
    return all(ours <= theirs * 1.05 for ours, theirs in top.values()), measured


EXPERIMENT = Experiment(
    name="fig7",
    help="Fig. 7 pub/sub sweep",
    run=run_pubsub_sweep,
    args=(
        Arg("--rates", "rates", _rates, ",".join(map(str, RATES))),
        Arg("--messages", "messages", positive_int, "1500"),
    ),
    scales={
        "report": {"rates": (250, 1000, 4000, 16000), "messages": 1500},
        "default": {"rates": RATES, "messages": 1500},
        "full": {"rates": RATES, "messages": 10_000},
    },
    render=render,
    expectations=(_same_bottleneck, _saturates_the_link, _knees, _lan, _as_fast),
)
