"""The traced pass: per-layer cost of one repetition, taken from outside.

``cProfile`` wraps the timed region of one repetition.  Each function's self
time and call count go to the layer of the file that defines it
(``layers.py``); a builtin or standard-library function has no layer, so its
self time is split over the layers of its callers, in proportion to the time
the profiler recorded for each caller.  Beside the profile, counters are read
from the layers' public ``stats()`` and ``Link.stats``.  Everything is
divided by stabilized sends.

The profiler costs something on every Python call and nothing inside native
code, so shares shift; ``trace.overhead_ratio`` says by how much the traced
repetition was slower than an untraced one of the same seed.  End-to-end
metrics are never taken from a traced run.
"""

import cProfile
import os
import pstats
import warnings
from collections import defaultdict

import repro
from repro import ReproError

from perf import measure
from perf.layers import LAYERS, make_layer_of

TOP_FUNCTIONS = 15

#: name -> (unit, better).  Counts are totals over the cluster.
PER_LAYER = {
    f"{layer}.{metric}": (unit, "lower")
    for layer in LAYERS
    for metric, unit in (("self_us_per_send", "us"), ("calls_per_send", "1/send"))
}
PER_LAYER.update({
    "unmapped.self_us_per_send": ("us", "lower"),
    "total.self_us_per_send": ("us", "lower"),
    "total.calls_per_send": ("1/send", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "sim.events_per_send": ("1/send", "lower"),
    "net.packets_per_send": ("1/send", "lower"),
    "net.drops_per_send": ("1/send", "lower"),
    "net.max_backlog_kb": ("kB", "lower"),
    "transport.retransmits_per_send": ("1/send", "lower"),
    "transport.suspensions": ("count", "lower"),
    "dataplane.frames_per_send": ("1/send", "lower"),
    "dataplane.msgs_per_frame": ("ratio", "higher"),
    "dataplane.window_stalls": ("count", "lower"),
    "dataplane.backpressure_events": ("count", "lower"),
    "control.frames_per_send": ("1/send", "lower"),
    "control.bytes_per_send": ("bytes", "lower"),
    "control.reports_coalesced_per_send": ("1/send", "higher"),
    "frontier.evals_per_send": ("1/send", "lower"),
    "frontier.skipped_share": ("ratio", "higher"),
    "frontier.fast_advances_per_send": ("1/send", "higher"),
    "durability.fsyncs_per_send": ("1/send", "lower"),
    "durability.wal_bytes_per_send": ("bytes", "lower"),
    "durability.appends_per_commit": ("ratio", "higher"),
    "sharding.cells_per_node": ("count", "lower"),
    "sharding.shards_owned": ("count", "lower"),
    "dsl.compilations": ("count", "lower"),
    "dsl.cache_hits": ("count", "higher"),
})
_PERF_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def attribute(stats, layer_of):
    """Split a ``pstats`` table over layers.

    Returns ``{layer: {label: [self_seconds, calls]}}`` where ``label`` names
    the function; a function without a layer appears under each layer that
    called it with its share.
    """
    own = {func: layer_of(func[0]) for func in stats}
    resolved = {}

    def shares(func):
        """layer -> fraction, for the layer(s) ``func``'s cost belongs to."""
        if own[func] is not None:
            return {own[func]: 1.0}
        if func in resolved:
            return resolved[func]
        resolved[func] = {"python": 1.0}  # breaks caller cycles
        callers = stats[func][4]
        weights = {c: split[2] for c, split in callers.items() if c in stats}
        if not any(weights.values()):
            weights = {c: callers[c][0] for c in weights}
        total = sum(weights.values())
        if total:
            out = defaultdict(float)
            for caller, weight in weights.items():
                for layer, fraction in shares(caller).items():
                    out[layer] += fraction * weight / total
            resolved[func] = dict(out)
        return resolved[func]

    table = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
    for func, (_cc, ncalls, self_s, _ct, _callers) in stats.items():
        label = "%s:%d(%s)" % (os.path.basename(func[0]), func[1], func[2])
        for layer, fraction in shares(func).items():
            cell = table[layer][label]
            cell[0] += self_s * fraction
            cell[1] += ncalls * fraction
    return table


def _calls_of(stats, filename_suffix, name):
    for (filename, _line, func_name), row in stats.items():
        if func_name == name and filename.replace(os.sep, "/").endswith(filename_suffix):
            return row[1]
    return None


def read_counters(scn):
    """Counters from the public surfaces, as totals over the cluster.
    A key a layer no longer reports reads ``None``, with a warning."""
    node_stats = [node.stats() for node in scn.nodes()]
    links = [link.stats for link in scn.net.links.values()]

    def total(key, optional=False):
        values = [s.get(key) for s in node_stats]
        if any(v is None for v in values):
            if not optional:
                warnings.warn(f"stats() has no {key!r}; its metric reads null")
                return None
            return 0
        return sum(values)

    durable = any(k.startswith("durability.") for s in node_stats for k in s)
    sharded = all("ack_table_cells" in s for s in node_stats)
    wal_bytes = 0
    if durable:
        try:
            for fs in scn.cluster.filesystems.values():
                wal_bytes += sum(len(fs.read_bytes(p)) for p in fs.listdir())
        except (AttributeError, TypeError, ReproError) as exc:
            warnings.warn(f"cannot size the WAL ({exc!r}); its metric reads null")
            wal_bytes = None
    return {
        "packets": sum(l.packets_sent for l in links),
        "drops": sum(l.packets_dropped for l in links),
        "max_backlog_bytes": max(l.max_backlog_bytes for l in links),
        "retransmissions": total("transport_retransmissions"),
        "suspensions": total("transport_suspensions"),
        "data_frames": total("dataplane.frames_sent"),
        "frame_messages": total("dataplane.frame_messages"),
        "window_stalls": total("window.stalls"),
        "backpressure_events": total("backpressure.events"),
        "control_frames": total("strategy.frames_sent"),
        "control_bytes": total("strategy.bytes_sent"),
        "reports_coalesced": total("strategy.acktable.reports_coalesced"),
        "evaluations": total("predicate_evaluations"),
        "skipped_by_index": total("evaluations_skipped_by_index"),
        "skipped_by_shortcircuit": total("evaluations_skipped_by_shortcircuit"),
        "fast_advances": total("frontier_fast_advances"),
        "compilations": total("predicate_compilations"),
        "cache_hits": total("predicate_cache_hits"),
        # Layers a workload bypasses report nothing; that reads as zero work.
        "fsyncs": total("durability.wal_group_commits", optional=not durable),
        "wal_appends": total("durability.wal_appends", optional=not durable),
        "wal_bytes": wal_bytes,
        "ack_table_cells": total("ack_table_cells", optional=not sharded),
        "shards_owned": total("shards_owned", optional=not sharded),
        "nodes": len(node_stats),
    }


def _ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def traced(name, seed, scale):
    """One untraced and one traced repetition of the same seeded scenario."""
    measure.repetition(name, seed, scale)  # warm-up, discarded
    plain = measure.repetition(name, seed, scale)
    profiler = cProfile.Profile()
    rep = measure.repetition(name, seed, scale, profiler, collect=read_counters)
    violations, failed = measure.summarize([plain, rep])
    stats = pstats.Stats(profiler).stats
    sends = rep["stable"] or 1
    table = attribute(stats, make_layer_of(_REPRO_DIR, _PERF_DIR))

    values = {}
    layers = {}
    unmapped_s = 0.0
    total_s = total_calls = 0.0
    for layer, functions in table.items():
        self_s = sum(cell[0] for cell in functions.values())
        calls = sum(cell[1] for cell in functions.values())
        total_s += self_s
        total_calls += calls
        if layer not in LAYERS:
            unmapped_s += self_s
        top = sorted(functions.items(), key=lambda item: -item[1][0])
        layers[layer] = {
            "self_us_per_send": self_s / sends * 1e6,
            "calls_per_send": calls / sends,
            "top_functions": [
                {"function": label,
                 "self_us_per_send": cell[0] / sends * 1e6,
                 "calls_per_send": cell[1] / sends}
                for label, cell in top[:TOP_FUNCTIONS]
            ],
        }
    for layer in LAYERS:
        row = layers.get(layer, {"self_us_per_send": 0.0, "calls_per_send": 0.0})
        values[f"{layer}.self_us_per_send"] = row["self_us_per_send"]
        values[f"{layer}.calls_per_send"] = row["calls_per_send"]
    values["unmapped.self_us_per_send"] = unmapped_s / sends * 1e6
    values["total.self_us_per_send"] = total_s / sends * 1e6
    values["total.calls_per_send"] = total_calls / sends
    values["trace.overhead_ratio"] = _ratio(rep["wall_s"], plain["wall_s"])
    values["sim.events_per_send"] = _ratio(
        _calls_of(stats, "sim/kernel.py", "step"), sends)

    c = rep["counters"]
    evaluated = c["evaluations"]
    skipped = None
    if None not in (c["skipped_by_index"], c["skipped_by_shortcircuit"]):
        skipped = c["skipped_by_index"] + c["skipped_by_shortcircuit"]
    values.update({
        "net.packets_per_send": c["packets"] / sends,
        "net.drops_per_send": c["drops"] / sends,
        "net.max_backlog_kb": c["max_backlog_bytes"] / 1024.0,
        "transport.retransmits_per_send": _ratio(c["retransmissions"], sends),
        "transport.suspensions": c["suspensions"],
        "dataplane.frames_per_send": _ratio(c["data_frames"], sends),
        "dataplane.msgs_per_frame": _ratio(c["frame_messages"], c["data_frames"]),
        "dataplane.window_stalls": c["window_stalls"],
        "dataplane.backpressure_events": c["backpressure_events"],
        "control.frames_per_send": _ratio(c["control_frames"], sends),
        "control.bytes_per_send": _ratio(c["control_bytes"], sends),
        "control.reports_coalesced_per_send": _ratio(c["reports_coalesced"], sends),
        "frontier.evals_per_send": _ratio(evaluated, sends),
        "frontier.skipped_share": _ratio(
            skipped, None if None in (skipped, evaluated) else skipped + evaluated),
        "frontier.fast_advances_per_send": _ratio(c["fast_advances"], sends),
        "durability.fsyncs_per_send": _ratio(c["fsyncs"], sends),
        "durability.wal_bytes_per_send": _ratio(c["wal_bytes"], sends),
        "durability.appends_per_commit": _ratio(c["wal_appends"], c["fsyncs"]),
        "sharding.cells_per_node": _ratio(c["ack_table_cells"], c["nodes"]),
        "sharding.shards_owned": c["shards_owned"],
        "dsl.compilations": c["compilations"],
        "dsl.cache_hits": c["cache_hits"],
    })
    return {
        "attempted": rep["attempted"],
        "failed": failed,
        "samples": rep["stable"],
        "violations": violations,
        "values": values,
        "layers": layers,
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": rep["wall_s"],
        "config": rep["config"],
    }
