"""Declarative experiment scenarios.

A scenario is a JSON-serializable dict describing a complete experiment —
topology, deployment knobs, predicates, workload, fault schedule — that
``run_scenario`` executes and ``python -m repro scenario FILE`` runs from
the command line.  This is how a downstream user pokes at their *own*
topology and consistency models without writing harness code::

    {
      "name": "two-continents",
      "topology": {
        "nodes": [
          {"name": "fra", "group": "europe"},
          {"name": "iad", "group": "us"},
          {"name": "sfo", "group": "us"}
        ],
        "default_link": {"latency_ms": 80, "rate_mbit": 100},
        "links": [
          {"a": "iad", "b": "sfo", "latency_ms": 30, "rate_mbit": 400}
        ]
      },
      "sender": "fra",
      "predicates": {
        "us_copy": "MAX($AZ_us)",
        "everywhere": "MIN($ALLWNODES - $MYWNODE)"
      },
      "workload": {"kind": "constant", "rate": 50, "messages": 200,
                   "size_bytes": 8192},
      "faults": [{"at": 2.0, "kind": "crash", "node": "sfo"},
                 {"at": 3.0, "kind": "recover", "node": "sfo"}]
    }

The result maps each predicate to a latency :class:`Series` (send time ->
time to first satisfaction) plus run statistics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.bench.runners.kit import (
    StabilityProbe,
    build_cluster,
    build_network,
    replay_trace,
)
from repro.errors import ConfigError
from repro.net.faults import FaultSchedule
from repro.net.tc import NetemSpec
from repro.net.topology import Network, Topology
from repro.sim.monitor import Series
from repro.transport.messages import SyntheticPayload
from repro.workloads.dropbox_trace import synthesize_trace
from repro.workloads.rates import constant_rate, poisson_rate


def _require(scenario: dict, key: str):
    try:
        return scenario[key]
    except KeyError:
        raise ConfigError(f"scenario is missing {key!r}") from None


def build_topology(spec: dict) -> Topology:
    topo = Topology(spec.get("name", "scenario"))
    nodes = _require(spec, "nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ConfigError("topology.nodes must be a non-empty list")
    for node in nodes:
        topo.add_node(_require(node, "name"), _require(node, "group"))
    if "default_link" in spec:
        topo.set_default(NetemSpec(**spec["default_link"]))
    for link in spec.get("links", ()):
        params = {k: v for k, v in link.items() if k not in ("a", "b")}
        topo.set_link_symmetric(
            _require(link, "a"), _require(link, "b"), NetemSpec(**params)
        )
    return topo


def _arm_faults(net: Network, faults: List[dict]) -> FaultSchedule:
    schedule = FaultSchedule(net)
    for fault in faults:
        kind = _require(fault, "kind")
        at = _require(fault, "at")
        if kind == "crash":
            schedule.crash(at, _require(fault, "node"))
        elif kind == "recover":
            schedule.recover(at, _require(fault, "node"))
        elif kind == "partition":
            schedule.partition(at, fault["group_a"], fault["group_b"])
        elif kind == "heal":
            schedule.heal(at)
        elif kind == "degrade":
            schedule.degrade_link(
                at,
                _require(fault, "src"),
                _require(fault, "dst"),
                latency_s=fault.get("latency_s"),
                bandwidth_bps=fault.get("bandwidth_bps"),
            )
        else:
            raise ConfigError(f"unknown fault kind {kind!r}")
    return schedule.arm()


def run_scenario(scenario: dict, seed: int = 0) -> Dict[str, object]:
    """Execute one scenario; see module docstring."""
    name = scenario.get("name", "scenario")
    topo = build_topology(_require(scenario, "topology"))
    sender_name = _require(scenario, "sender")
    topo.node(sender_name)  # a ConfigError for a name the topology lacks
    predicates = _require(scenario, "predicates")
    if not isinstance(predicates, dict) or not predicates:
        raise ConfigError("scenario needs at least one predicate")
    sim, net = build_network(topo, seed)
    control = scenario.get("control", {})
    cluster = build_cluster(
        net,
        control_interval_s=control.get("interval_s", 0.002),
        control_batch=control.get("batch", 16),
    )
    sender = cluster[sender_name]
    # Predicates are evaluated at the sender (they may reference the
    # sender's availability zone, which would not expand at other nodes).
    for key, source in predicates.items():
        sender.register_predicate(key, source)

    probe = StabilityProbe(sim, sender, predicates)

    _arm_faults(net, scenario.get("faults", []))

    workload = _require(scenario, "workload")
    kind = _require(workload, "kind")
    if kind in ("constant", "poisson"):
        size = workload.get("size_bytes", 8192)
        rate = _require(workload, "rate")
        messages = _require(workload, "messages")
        generator = constant_rate if kind == "constant" else poisson_rate
        generator(sim, rate, messages, lambda _i: probe.send(SyntheticPayload(size)))
        horizon = messages / rate + workload.get("drain_s", 60.0)
    elif kind == "trace":
        records = synthesize_trace(
            scale=workload.get("scale", 0.02), seed=workload.get("seed", 7)
        )
        replay_trace(sim, records, probe.send)
        horizon = records[-1].time_s + workload.get("drain_s", 120.0)
    else:
        raise ConfigError(f"unknown workload kind {kind!r}")

    sim.run(until=horizon)
    results = {key: Series(key) for key in predicates}
    for key, samples in probe.samples.items():
        for sample in samples:
            results[key].record(sample.sent, sample.latency)
    return {
        "name": name,
        "series": results,
        "messages_sent": sender.last_sent_seq(),
        "duration_s": sim.now,
        "stats": sender.stats(),
    }


def run_scenario_file(
    path: Union[str, Path], out_dir: Optional[Union[str, Path]] = None
) -> Dict[str, object]:
    """Load a scenario JSON, run it, optionally dump per-predicate CSVs."""
    try:
        scenario = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load scenario {path}: {exc}") from exc
    result = run_scenario(scenario)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for key, series in result["series"].items():
            series.to_csv(out / f"{result['name']}_{key}.csv",
                          header=("send_time_s", "latency_s"))
    return result
