"""The metric catalogue: every number the system reports about itself,
declared once.

One row per metric or family — ``Metric(name, kind, merge, unit, layer,
help)`` — and five readers: the emitted-equals-declared test over
``stats()``, :func:`merge` (how a sharded node, a chaos report or a
cluster combines several sources), the OpenMetrics typing in
:mod:`repro.obs.export`, the columns of ``repro top`` / ``repro obs``
(:func:`resolve`, at import), and the table in ``docs/observability.md``
(:func:`render_block`).  The values themselves still come from the
``stats()`` of the object that owns them; to add a metric, add its row
here and its value there.

``name`` is a literal key or a family pattern in which each
``<placeholder>`` stands for text the user chose (a node, a predicate
key, a stability type).  ``kind`` is ``counter`` (monotone), ``gauge``
or ``histogram``.  ``merge`` says what several sources report together: ``sum``; ``max`` (high-water marks,
levels, and values every source already reports whole); or ``each`` —
the value only means something per source, so it is kept once per
source under that source's label (:func:`labelled`).  Every counter
merges by ``sum`` except ``trace_events``, which the stacks of one node
read off a shared tracer.  ``layer`` is the ``perf/layers.py`` layer of
the module that counts the value.

This is module-level data: nothing is registered per ``Stabilizer`` and
``stats()`` never consults it.  :func:`lookup` caches by key string, so
the readers above pay the pattern scan once per distinct key.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

__all__ = [
    "Metric",
    "CATALOGUE",
    "lookup",
    "resolve",
    "labelled",
    "merge",
    "render_block",
    "splice_block",
]

#: A sharded node's label for one of its stacks, as it appears in keys.
_SHARD_LABEL = r"s\d+"
_PLACEHOLDER = re.compile(r"<\w+>")
BLOCK_BEGIN = "<!-- metrics:begin -->"
BLOCK_END = "<!-- metrics:end -->"


class Metric(NamedTuple):
    name: str
    kind: str
    merge: str
    unit: str
    layer: str
    help: str

    @property
    def prefix(self) -> str:
        """The literal text the name starts with: the key itself, or a
        family's name up to its first placeholder."""
        return self.name.partition("<")[0]

    def pattern(self) -> "re.Pattern[str]":
        """The keys this row declares: its name with every placeholder
        standing for any text (node names and predicate keys are the
        user's) — and, for an ``each`` row, the same with a shard label
        where a sharded node puts it (after the head component in
        ``stats()``, leading on a histogram)."""
        text = _PLACEHOLDER.sub(".+", re.escape(self.name))
        if self.merge == "each":
            label = rf"(?:{_SHARD_LABEL}\.)?"
            if self.kind == "histogram":
                text = label + text
            else:
                head, rest = text.split(r"\.", 1)
                text = head + r"\." + label + rest
        return re.compile(text)


CATALOGUE = (
    # -- core.dataplane ----------------------------------------------------
    Metric("messages_sent", "counter", "sum", "chunks", "core.dataplane",
           "chunks this node originated, one sequence number each"),
    Metric("messages_received", "counter", "sum", "chunks", "core.dataplane",
           "chunks received in order from remote origins"),
    Metric("buffered_bytes", "gauge", "sum", "bytes", "core.dataplane",
           "send-buffer occupancy: sent chunks not yet received everywhere"),
    Metric("buffer_reclaimed", "counter", "sum", "chunks", "core.dataplane",
           "send-buffer entries released by the delivery watermark"),
    Metric("duplicates_dropped", "counter", "sum", "chunks", "core.dataplane",
           "received chunks at or below the stream's high-water mark"),
    Metric("replayed_chunks", "counter", "sum", "chunks", "core.dataplane",
           "buffered chunks re-sent to a peer that asked for catch-up"),
    Metric("dataplane.payload_bytes_sent", "counter", "sum", "bytes",
           "core.dataplane",
           "payload bytes offered to the transport, once per remote peer"),
    Metric("dataplane.frames_sent", "counter", "sum", "frames", "core.dataplane",
           "coalesced data frames cut"),
    Metric("dataplane.frames_received", "counter", "sum", "frames",
           "core.dataplane", "data frames received"),
    Metric("dataplane.frame_messages", "counter", "sum", "chunks",
           "core.dataplane", "chunks carried by the frames sent"),
    Metric("dataplane.frame_payload_bytes", "counter", "sum", "bytes",
           "core.dataplane", "payload bytes carried by the frames sent"),
    Metric("dataplane.max_frame_messages", "gauge", "max", "chunks",
           "core.dataplane", "most chunks any one frame has carried"),
    Metric("dataplane.delivery_watermark", "gauge", "each", "seq",
           "core.dataplane",
           "highest own-stream sequence every node acknowledged received: "
           "a position in one stream's sequence space"),
    Metric("window.stalls", "counter", "sum", "events", "core.dataplane",
           "always 0: there is no send window; kept while perf/trace.py "
           "still totals it"),
    Metric("backpressure.events", "counter", "sum", "events", "core.dataplane",
           "send buffer crossings of the high watermark"),
    # -- transport.fifo ----------------------------------------------------
    Metric("transport_retransmissions", "counter", "sum", "frames",
           "transport.fifo", "frames re-sent by the retransmit timer"),
    Metric("transport_suspensions", "counter", "sum", "events", "transport.fifo",
           "channels that exhausted their retransmit budget toward a peer"),
    # -- core.control ------------------------------------------------------
    Metric("strategy.frames_sent", "counter", "sum", "frames", "core.control",
           "control-carrier datagrams sent, whichever engine runs "
           "(repair re-sends included)"),
    Metric("strategy.frames_received", "counter", "sum", "frames", "core.control",
           "control-carrier datagrams received"),
    Metric("strategy.bytes_sent", "counter", "sum", "bytes", "core.control",
           "control-carrier wire bytes sent"),
    Metric("strategy.tail_probes", "counter", "sum", "events", "core.control",
           "times the carrier fell silent for its 50 ms tail-probe delay and "
           "re-sent its full state to the peers of its last frame"),
    Metric("strategy.interest_announcements", "counter", "sum", "frames",
           "core.control",
           "interest statements sent as datagrams of their own, one per peer "
           "(a widening, or the start-up statement)"),
    Metric("strategy.acktable.reports_sent", "counter", "sum", "reports",
           "core.control", "ACK-table engine: per-origin reports sent"),
    Metric("strategy.acktable.reports_coalesced", "counter", "sum", "reports",
           "core.control",
           "ACK-table engine: reports that shared a datagram with another"),
    Metric("strategy.acktable.reports_withheld", "counter", "sum", "reports",
           "core.control",
           "ACK-table engine: reports not sent because the peer does not "
           "observe that origin, per flush and origin (a received grant "
           "only its origin observes is never batched: the origin's data "
           "ACK carries it)"),
    Metric("strategy.sequencer.reports_sent", "counter", "sum", "reports",
           "core.control", "sequencer engine: grant floors reported"),
    Metric("strategy.sequencer.stable_broadcasts", "counter", "sum", "frames",
           "core.control", "sequencer engine: stable-set broadcasts"),
    Metric("strategy.sequencer.stable_entries", "counter", "sum", "entries",
           "core.control", "sequencer engine: entries those broadcasts carried"),
    # -- core.frontier -----------------------------------------------------
    Metric("predicate_evaluations", "counter", "sum", "evaluations",
           "core.frontier",
           "predicate evaluations performed: on update for observed slots, "
           "and on read"),
    Metric("predicate_evaluations_on_read", "counter", "sum", "evaluations",
           "core.frontier",
           "the share of predicate_evaluations made for a slot nobody "
           "observes because someone asked"),
    Metric("evaluations_skipped_by_index", "counter", "sum", "evaluations",
           "core.frontier",
           "observed-slot evaluations the cell-to-predicate index ruled out"),
    Metric("evaluations_skipped_by_shortcircuit", "counter", "sum", "evaluations",
           "core.frontier",
           "observed-slot evaluations a witness set or a MAX-tree bound ruled "
           "out (nested MIN/MAX/KTH trees included)"),
    Metric("frontier_fast_advances", "counter", "sum", "advances",
           "core.frontier", "frontier advances taken without a full evaluation"),
    Metric("pending_waiters", "gauge", "sum", "waiters", "core.frontier",
           "waitfor events not yet released"),
    # -- dsl ---------------------------------------------------------------
    Metric("predicate_compilations", "counter", "sum", "compilations", "dsl",
           "predicate sources compiled"),
    Metric("predicate_cache_hits", "counter", "sum", "hits", "dsl",
           "compilations answered from the compiler's cache"),
    # -- core.durability ---------------------------------------------------
    Metric("durability.wal_appends", "counter", "sum", "records",
           "core.durability", "records appended to the WAL"),
    Metric("durability.wal_group_commits", "counter", "sum", "fsyncs",
           "core.durability", "group commits whose fsync returned"),
    Metric("durability.wal_fsync_failures", "counter", "sum", "fsyncs",
           "core.durability", "group commits whose fsync failed"),
    Metric("durability.wal_write_faults", "counter", "sum", "events",
           "core.durability", "WAL writes the filesystem refused"),
    Metric("durability.wal_poisoned_ranges", "counter", "sum", "ranges",
           "core.durability", "written ranges abandoned after a failed fsync"),
    Metric("durability.wal_poisoned_records", "counter", "sum", "records",
           "core.durability", "records in those ranges"),
    Metric("durability.wal_rewritten_records", "counter", "sum", "records",
           "core.durability", "poisoned records written again to a new segment"),
    Metric("durability.wal_segments_rotated", "counter", "sum", "segments",
           "core.durability", "WAL segments closed at the size bound"),
    Metric("durability.wal_segments_compacted", "counter", "sum", "segments",
           "core.durability", "WAL segments deleted below a checkpoint"),
    Metric("durability.wal_checkpoints", "counter", "sum", "checkpoints",
           "core.durability", "checkpoints taken"),
    Metric("durability.wal_pending", "gauge", "sum", "records", "core.durability",
           "records delivered but not yet covered by a successful fsync"),
    # -- core.sharding -----------------------------------------------------
    Metric("suspected_nodes", "gauge", "sum", "nodes", "core.sharding",
           "peers the failure detector suspects now (a sharded node reports "
           "the union over its stacks)"),
    Metric("suspicions", "counter", "sum", "events", "core.sharding",
           "peers that became suspected"),
    Metric("recoveries", "counter", "sum", "events", "core.sharding",
           "suspected peers heard from again"),
    Metric("shard_epoch", "gauge", "max", "epoch", "core.sharding",
           "membership epoch of the shard map this node runs"),
    Metric("shards_owned", "gauge", "sum", "shards", "core.sharding",
           "shards with a live stack at this node"),
    Metric("shards_pending", "gauge", "sum", "shards", "core.sharding",
           "owned shards whose state handoff has not landed"),
    Metric("shards_frozen", "gauge", "sum", "shards", "core.sharding",
           "shards refusing local writes for an in-flight rebalance"),
    Metric("shard_count", "gauge", "max", "shards", "core.sharding",
           "shards in the deployment"),
    Metric("ack_table_cells", "gauge", "sum", "cells", "core.sharding",
           "ACK-table cells allocated at this node"),
    Metric("rebalance.shards_migrating", "gauge", "sum", "shards", "core.sharding",
           "shard moves of the active rebalance not yet cut over "
           "(cluster block)"),
    Metric("rebalance.completed", "counter", "sum", "rebalances", "core.sharding",
           "membership changes cut over (cluster block)"),
    Metric("rebalance.handoff_bytes", "counter", "sum", "bytes", "core.sharding",
           "state-transfer bytes shipped to new owners (cluster block)"),
    Metric("rebalance.transfer_retries", "counter", "sum", "events",
           "core.sharding",
           "state transfers re-driven after a timeout or a lost source "
           "(cluster block)"),
    Metric("rebalance.drain_timeouts", "counter", "sum", "events", "core.sharding",
           "freezes that gave up waiting for in-flight traffic (cluster block)"),
    Metric("rebalance.cutover_latency_s", "histogram", "each", "seconds",
           "core.sharding",
           "freeze to cutover delay per membership change "
           "(coordinator.metrics)"),
    # -- core.node ---------------------------------------------------------
    Metric("degradations", "counter", "sum", "events", "core.node",
           "suspicions handed to the degradation policy"),
    Metric("reinclusions", "counter", "sum", "events", "core.node",
           "recoveries handed to the degradation policy"),
    Metric("stale_epoch_frames", "counter", "sum", "frames", "core.node",
           "data and control frames fenced for carrying another shard epoch"),
    Metric("frontier_lag.<origin>.<type>", "gauge", "each", "seqs", "core.node",
           "gap between the newest sequence this node knows of origin's "
           "stream and its own ACK cell for type; only for cells this node "
           "grants (received; persisted with durability; any type from its "
           "first report_stability)"),
    Metric("admission.offered", "counter", "sum", "messages", "core.node",
           "submissions seen by the admission gate"),
    Metric("admission.admitted", "counter", "sum", "messages", "core.node",
           "sent immediately or drained from the queue"),
    Metric("admission.shed", "counter", "sum", "messages", "core.node",
           "refused at the edge, before sequencing"),
    Metric("admission.shed_<reason>", "counter", "sum", "messages", "core.node",
           "shed count by reason (breaker, queue_full)"),
    Metric("admission.admitted_shed", "counter", "sum", "messages", "core.node",
           "admitted then lost: must stay 0"),
    Metric("admission.queue_depth", "gauge", "sum", "messages", "core.node",
           "submissions waiting in the shed queue"),
    Metric("admission.queue_peak", "gauge", "max", "messages", "core.node",
           "high-water mark of the shed queue"),
    Metric("admission.requeues", "counter", "sum", "events", "core.node",
           "pump re-queues after a mid-drain token shortage"),
    Metric("admission.tokens", "gauge", "sum", "tokens", "core.node",
           "tokens currently in the bucket"),
    Metric("admission.direct_offered", "counter", "sum", "messages", "core.node",
           "direct send() calls that met the fail-fast gate"),
    Metric("admission.direct_admitted", "counter", "sum", "messages", "core.node",
           "direct sends the gate let through"),
    Metric("admission.direct_refused", "counter", "sum", "messages", "core.node",
           "direct sends refused with AdmissionError"),
    Metric("breaker.count", "gauge", "sum", "breakers", "core.node",
           "per-peer circuit breakers"),
    Metric("breaker.open", "gauge", "sum", "breakers", "core.node",
           "breakers open now"),
    Metric("breaker.half_open", "gauge", "sum", "breakers", "core.node",
           "breakers probing now"),
    Metric("breaker.trips", "counter", "sum", "events", "core.node",
           "transitions to open"),
    Metric("breaker.closes", "counter", "sum", "events", "core.node",
           "transitions back to closed"),
    Metric("breaker.probes", "counter", "sum", "events", "core.node",
           "half-open probes let through"),
    Metric("slacontrol.level", "gauge", "max", "rungs", "core.node",
           "SLA controller ladder position, 0 = the original predicate"),
    Metric("slacontrol.window_p99_s", "gauge", "max", "seconds", "core.node",
           "send-to-stable p99 over the controller's last interval"),
    Metric("slacontrol.oldest_pending_s", "gauge", "max", "seconds", "core.node",
           "age of the oldest send the controlled key has not covered"),
    Metric("slacontrol.ticks", "counter", "sum", "events", "core.node",
           "controller intervals evaluated"),
    Metric("slacontrol.breaches", "counter", "sum", "events", "core.node",
           "intervals that breached the target"),
    Metric("slacontrol.degrade_steps", "counter", "sum", "events", "core.node",
           "ladder steps down"),
    Metric("slacontrol.restore_steps", "counter", "sum", "events", "core.node",
           "ladder steps back up"),
    # -- obs ---------------------------------------------------------------
    Metric("trace_events", "counter", "max", "events", "obs",
           "events the tracer has emitted; the stacks of a node, and usually "
           "the nodes of a cluster, share one tracer"),
    Metric("stability_latency.<key>", "histogram", "each", "seconds", "obs",
           "send-to-stable delay per predicate key"),
    Metric("stability_latency.samples", "counter", "sum", "samples", "obs",
           "observations across the stability_latency histograms"),
    Metric("alerts.fired", "counter", "sum", "alerts", "obs",
           "SLO burn-rate alerts fired"),
    Metric("alerts.resolved", "counter", "sum", "alerts", "obs",
           "alerts resolved"),
    Metric("alerts.active", "gauge", "sum", "alerts", "obs",
           "alerts firing now"),
    Metric("critpath.sends", "gauge", "sum", "sends", "obs",
           "stabilized sends in the trace ring (with blame_in_stats)"),
    Metric("critpath.attributed", "gauge", "sum", "sends", "obs",
           "of those, sends with a blamed peer and dominant segment"),
    Metric("critpath.<key>.blamed.<node>", "gauge", "sum", "sends", "obs",
           "sends of the key whose last ACK came from the most-blamed node"),
    Metric("critpath.<key>.share.<segment>", "gauge", "each", "ratio", "obs",
           "share of the key's send-to-stable time spent in the segment "
           "(network, queueing, fsync, frontier_eval)"),
)

_BY_NAME: Dict[str, Metric] = {metric.name: metric for metric in CATALOGUE}
# Scalars and histograms are two namespaces, as in a registry snapshot:
# ``stability_latency.samples`` may be a counter and a predicate's histogram.
_PATTERNS = {
    histogram: [
        (metric.pattern(), metric)
        for metric in CATALOGUE
        if (metric.kind == "histogram") == histogram
    ]
    for histogram in (False, True)
}


@lru_cache(maxsize=4096)
def lookup(key: str, histogram: bool = False) -> Optional[Metric]:
    """The row declaring the emitted ``key`` — a ``stats()`` key, or with
    ``histogram`` a name among a snapshot's histograms — or ``None``: a
    metric a user added to the public ``node.registry``."""
    for pattern, metric in _PATTERNS[histogram]:
        if pattern.fullmatch(key):
            return metric
    return None


def resolve(name: str) -> Metric:
    """The row declared under ``name``, spelled as in the table (a family
    by its pattern).  ``KeyError`` when nothing declares it: a dashboard
    resolves its columns at import so that a renamed metric fails there
    and not as a silent zero."""
    return _BY_NAME[name]


def labelled(key: str, label: str) -> str:
    """``key`` as one labelled source reports it: the label follows the
    head component (``frontier_lag.s3.n1.received``)."""
    head, _, rest = key.partition(".")
    return f"{head}.{label}.{rest}"


def merge(
    snapshots: Sequence[Mapping[str, float]],
    each_prefix: Optional[Sequence[str]] = None,
) -> Dict[str, float]:
    """Combine flat ``stats()`` dicts by each key's declared rule; a key
    nothing declares merges by ``sum``.

    ``each_prefix`` labels the sources, one string per snapshot (``s3``
    for a shard stack, a node's name in a cluster): an ``each`` value is
    kept once per source under :func:`labelled`.  Without labels it keeps
    its name, which only one source may then report.
    """
    out: Dict[str, float] = {}
    for index, snapshot in enumerate(snapshots):
        for key, value in snapshot.items():
            metric = lookup(key)
            rule = metric.merge if metric is not None else "sum"
            if rule == "each":
                if each_prefix is not None:
                    key = labelled(key, each_prefix[index])
                elif key in out:
                    raise ValueError(
                        f"{key!r} is reported per source: merging several "
                        "sources needs each_prefix"
                    )
                out[key] = value
            elif key not in out:
                out[key] = value
            elif rule == "max":
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out


# ---------------------------------------------------------------------- docs
def render_block() -> str:
    """The catalogue as the markdown table ``docs/observability.md``
    carries between its ``metrics`` markers (``make metrics-doc``)."""
    lines = [
        BLOCK_BEGIN,
        "| name | kind | merge | unit | layer | help |",
        "|---|---|---|---|---|---|",
    ]
    for m in CATALOGUE:
        lines.append(
            f"| `{m.name}` | {m.kind} | {m.merge} | {m.unit} | {m.layer} "
            f"| {m.help} |"
        )
    lines.append(BLOCK_END)
    return "\n".join(lines) + "\n"


def splice_block(text: str) -> str:
    """``text`` with what stands between the markers replaced by
    :func:`render_block`."""
    begin = text.index(BLOCK_BEGIN)
    end = text.index(BLOCK_END) + len(BLOCK_END) + 1
    return text[:begin] + render_block() + text[end:]


def main(argv: List[str]) -> int:
    """``python -m repro.obs.catalogue`` prints the block; given a file,
    rewrites the block in it."""
    if not argv:
        sys.stdout.write(render_block())
        return 0
    (path,) = argv
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(splice_block(text))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
