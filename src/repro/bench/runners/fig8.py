"""Fig. 8: latency under dynamic predicate reconfiguration."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bench.analysis import alternation_score, instruments_agree
from repro.bench.paper import Arg, Experiment, finding, positive_int
from repro.bench.reporting import format_series, format_table, ms
from repro.bench.runners.fig7 import PUBSUB_MESSAGE_BYTES, PUBSUB_SITES
from repro.bench.runners.kit import StabilityProbe, build_cluster, build_network
from repro.bench.topologies import CLOUDLAB_SENDER, cloudlab_topology
from repro.pubsub import ReliableBroadcast, StabilizerBroker
from repro.sim.monitor import Series
from repro.transport.messages import SyntheticPayload
from repro.workloads.rates import constant_rate

ALL_SITES_PREDICATE = "MIN($ALLWNODES - $MYWNODE)"
THREE_SITES_PREDICATE = "KTH_MAX(3, $ALLWNODES - $MYWNODE)"
SLOWEST_SITE = "CLEM"
TOGGLE_EVERY_S = 5.0


def _reconfig_static(
    predicate: str, messages: int, rate: float
) -> Tuple[Series, Dict[str, float]]:
    sim, net = build_network(cloudlab_topology())
    cluster = build_cluster(
        net, {"p": predicate}, control_interval_s=0.001, control_batch=4
    )
    sender = cluster[CLOUDLAB_SENDER]
    probe = StabilityProbe(sim, sender, ["p"])
    start = sim.now
    constant_rate(
        sim, rate, messages,
        lambda _i: probe.send(SyntheticPayload(PUBSUB_MESSAGE_BYTES)),
    )
    sim.run(until=start + messages / rate + 30.0)
    series = Series(predicate)
    for sample in probe.samples["p"]:
        series.record(sample.sent, sample.latency)
    return series, sender.stability.summary("p")


def _reconfig_changing(
    messages: int, rate: float, toggle_every_s: float
) -> Dict[str, object]:
    sim, net = build_network(cloudlab_topology())
    cluster = build_cluster(net, control_interval_s=0.001, control_batch=4)
    brokers = {n: StabilizerBroker(cluster[n]) for n in net.topology.node_names()}
    for site in PUBSUB_SITES:
        if site != SLOWEST_SITE:
            brokers[site].subscribe(lambda *a: None)
    sim.run(until=0.5)
    app = ReliableBroadcast(brokers[CLOUDLAB_SENDER])
    toggles: List[Tuple[float, str]] = []

    def toggler():
        subscription = None
        while True:
            if subscription is None:
                subscription = brokers[SLOWEST_SITE].subscribe(lambda *a: None)
                toggles.append((sim.now, "subscribe"))
            else:
                subscription.unsubscribe()
                subscription = None
                toggles.append((sim.now, "unsubscribe"))
            yield toggle_every_s

    toggle_process = sim.spawn(toggler(), name="clem-toggler")
    toggle_process.add_callback(lambda _e: None)
    start = sim.now
    constant_rate(
        sim,
        rate,
        messages,
        lambda i: app.broadcast(SyntheticPayload(PUBSUB_MESSAGE_BYTES)),
    )
    sim.run(until=start + messages / rate + 10.0)
    toggle_process.interrupt("experiment over")
    sim.run(until=sim.now + 0.1)
    # Report latencies against time-from-first-send.
    series = Series("changing")
    for t, latency in app.latency:
        series.record(t - start, latency)
    return {
        "series": series,
        "toggles": [(t - start, kind) for t, kind in toggles],
    }


def run_reconfig(
    messages: int = 1600, rate: float = 80.0, toggle_every_s: float = TOGGLE_EVERY_S
) -> Dict[str, object]:
    all_sites, all_sites_obs = _reconfig_static(
        ALL_SITES_PREDICATE, messages, rate
    )
    three_sites, three_sites_obs = _reconfig_static(
        THREE_SITES_PREDICATE, messages, rate
    )
    changing = _reconfig_changing(messages, rate, toggle_every_s)
    return {
        "all_sites": all_sites,
        "three_sites": three_sites,
        "changing": changing["series"],
        "toggles": changing["toggles"],
        # Built-in stability-latency summaries for the static phases (the
        # changing phase measures at subscribers, not the sender).
        "obs": {"all_sites": all_sites_obs, "three_sites": three_sites_obs},
    }


PHASES = ("all_sites", "three_sites", "changing")


def render(result) -> str:
    lines = [
        f"{key}: mean {ms(result[key].mean())} over {len(result[key])} messages"
        for key in PHASES
    ]
    lines.append(f"toggles: {result['toggles'][:6]} ...")
    width = TOGGLE_EVERY_S
    windows = [
        (i * width, (i + 1) * width)
        for i in range(int(result["changing"].times[-1] // width) + 1)
    ]
    lines.append(
        format_table(
            ["window s", "all sites ms", "three sites ms", "changing ms"],
            [
                [f"[{start:g},{end:g})"]
                + [f"{result[key].window_mean(start, end) * 1e3:.2f}" for key in PHASES]
                for start, end in windows
            ],
            title="Fig. 8: end-to-end latency under predicate reconfiguration",
        )
    )
    lines.append(
        format_series(
            [(x, y * 1e3) for x, y in result["changing"].downsample(20)],
            x_label="time s",
            y_label="latency ms",
            title="Fig. 8 — changing predicate",
        )
    )
    return "\n".join(lines)


@finding(
    "all-sites vs three-sites gap",
    "~3 ms (MA only 3 ms faster than CLEM)",
    kind="exact",
)
def _gap(result):
    gap = result["all_sites"].mean() - result["three_sites"].mean()
    return abs(gap * 1e3 - 3.0) <= 1.5, ms(gap)


@finding(
    "static baselines at the paper's levels",
    "all sites ~52 ms, three sites ~49 ms",
    kind="exact",
)
def _levels(result):
    all_sites, three_sites = result["all_sites"].mean(), result["three_sites"].mean()
    holds = abs(all_sites * 1e3 - 52.0) <= 3.0 and abs(three_sites * 1e3 - 49.0) <= 3.0
    return holds, f"{ms(all_sites)}, {ms(three_sites)}"


# CLEM is subscribed in the even toggle windows and gone in the odd ones.
@finding(
    "changing predicate tracks subscription state",
    "latency drops when the slowest site leaves",
)
def _tracks_subscription(result):
    score = alternation_score(result["changing"], TOGGLE_EVERY_S)
    return score > 0, f"subscribed windows {ms(score)} slower"


# For the static phases.  (A result that carries no summaries has nothing
# to cross-check.)
@finding(
    "probe agrees with the sender's built-in instruments",
    "(harness cross-check: same count, mean within 1%)",
    kind="exact",
)
def _instruments_agree(result):
    return instruments_agree(
        (label, result[label], summary)
        for label, summary in result.get("obs", {}).items()
    )


EXPERIMENT = Experiment(
    name="fig8",
    help="Fig. 8 dynamic reconfiguration",
    run=run_reconfig,
    args=(Arg("--messages", "messages", positive_int, "800"),),
    scales={
        "report": {"messages": 800},
        "default": {"messages": 800},
        "full": {"messages": 1600},
    },
    render=render,
    expectations=(_gap, _levels, _tracks_subscription, _instruments_agree),
)
