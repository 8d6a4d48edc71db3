"""Stabilization critical-path attribution: *who* and *what* made a
send slow.

A send stabilizes when the last-arriving acknowledgment lets the
frontier predicate cover its sequence — so for every stabilized send
there is exactly one *straggler chain*: the peer whose ACK arrived
last, and within that chain one *dominant segment* (network, queueing,
fsync, or frontier evaluation) that ate the largest share of the
send→stable latency.  Aggregated per predicate key, that pair answers
the two questions an operator actually asks: "which node is holding my
frontier back?" and "is it the WAN, the disk, or my own batching?"

The analysis is offline over the flight-recorder ring (or a JSONL
trace file): :func:`analyze` turns :func:`~repro.obs.spans.build_span_trees`
output into one :class:`Attribution` per (send, predicate key), and
:class:`BlameTable` aggregates them into the per-key blamed-peer and
segment-share tables behind ``Stabilizer.stats()``, ``repro blame``,
and the chaos flight recorder's failure dumps.

Segment taxonomy (timestamps along the blamed peer's chain)::

    t0 enqueue   t1 wire-out   t2 peer receive   t3 peer ack
    t4 report out   t5 report in at origin   t6 frontier advance

    network      = (t2 - t1) + (t5 - t4)          both WAN hops
    queueing     = (t1 - t0) + (t4 - t3)          frame + ack batching
                   [+ (t3 - t2) when the ack was not fsync-gated]
    fsync        = (t3 - t2) when durability gated the ack
    frontier-eval= (t6 - t5)                      table update -> advance

A send stabilized by a *local* table update (e.g. a relaxed ``MAX``
predicate satisfied by the origin's own ack) blames the origin node
itself, with the whole latency under frontier-eval/queueing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.spans import SendTrace, build_span_trees

__all__ = [
    "Attribution",
    "BlameTable",
    "analyze",
    "analyze_trees",
]

SEGMENTS = ("network", "queueing", "fsync", "frontier_eval")


class Attribution:
    """The critical path of one stabilized (send, predicate-key) pair."""

    __slots__ = (
        "origin", "shard", "seq", "key", "node", "blamed",
        "total_s", "segments", "attributed",
    )

    def __init__(self, origin, shard, seq, key, node, blamed,
                 total_s, segments, attributed):
        self.origin = origin
        self.shard = shard
        self.seq = seq
        #: Predicate key this attribution is for.
        self.key = key
        #: Node whose frontier advanced (where send→stable is measured).
        self.node = node
        #: The straggler: the peer whose ACK closed the predicate (the
        #: origin node itself for locally-satisfied predicates); None
        #: when the trace ring did not retain enough context.
        self.blamed = blamed
        self.total_s = total_s
        #: segment name -> seconds (only for attributed sends).
        self.segments: Dict[str, float] = segments
        self.attributed = attributed

    @property
    def dominant(self) -> Optional[str]:
        if not self.segments:
            return None
        return max(self.segments.items(), key=lambda kv: kv[1])[0]

    def to_dict(self) -> Dict[str, object]:
        return {
            "origin": self.origin,
            "shard": self.shard,
            "seq": self.seq,
            "key": self.key,
            "node": self.node,
            "blamed": self.blamed,
            "dominant": self.dominant,
            "total_s": self.total_s,
            "segments": dict(self.segments),
            "attributed": self.attributed,
        }


def _attribute_one(trace: SendTrace, key: str,
                   stable_ts: float, cause: Optional[dict]) -> Attribution:
    origin_node = trace.root.node
    enqueue_ts = trace.root.start
    total = max(0.0, stable_ts - enqueue_ts)

    def unattributed() -> Attribution:
        return Attribution(
            trace.origin, trace.shard, trace.seq, key, origin_node,
            None, total, {}, False,
        )

    if cause is None:
        return unattributed()

    kind = cause["kind"]
    if kind in ("control.receive", "data.ack_receive"):
        blamed = cause["peer"]
        chain = trace.peers.get(blamed)
        if chain is None or chain.get("report_received") is None:
            return unattributed()
        t1 = chain.get("send")
        t2 = chain["receive"]
        t3 = chain["ack"]
        t4 = chain.get("report_sent")
        t5 = chain["report_received"]
        if t1 is None or t4 is None:
            return unattributed()
        fsync_gated = (
            chain.get("ack_type") == "persisted"
            and chain.get("fsync") is not None
        )
        segments = {
            "network": max(0.0, t2 - t1) + max(0.0, t5 - t4),
            "queueing": max(0.0, t1 - enqueue_ts) + max(0.0, t4 - t3),
            "fsync": 0.0,
            "frontier_eval": max(0.0, stable_ts - t5),
        }
        if fsync_gated:
            segments["fsync"] = max(0.0, t3 - t2)
        else:
            segments["queueing"] += max(0.0, t3 - t2)
        return Attribution(
            trace.origin, trace.shard, trace.seq, key, origin_node,
            blamed, total, segments, True,
        )

    if kind in ("ack.local", "data.receive"):
        # The origin's own table update closed the predicate: the send
        # never waited on a remote ACK (relaxed MAX predicates, or a
        # locally durability-gated MIN over $MYWNODE).
        ack_ts = cause["ts"]
        segments = {
            "network": 0.0,
            "queueing": max(0.0, ack_ts - enqueue_ts),
            "fsync": 0.0,
            "frontier_eval": max(0.0, stable_ts - ack_ts),
        }
        if kind == "ack.local" and cause.get("type") == "persisted":
            segments["fsync"] = segments.pop("queueing")
            segments["queueing"] = 0.0
        return Attribution(
            trace.origin, trace.shard, trace.seq, key, origin_node,
            origin_node, total, segments, True,
        )

    return unattributed()


def analyze_trees(
    trees: Dict, keys: Optional[Iterable[str]] = None
) -> List[Attribution]:
    """One :class:`Attribution` per stabilized (send, key) pair."""
    key_filter = set(keys) if keys is not None else None
    out: List[Attribution] = []
    for trace in trees.values():
        for pkey, (stable_ts, cause) in sorted(trace.stable.items()):
            if key_filter is not None and pkey not in key_filter:
                continue
            out.append(_attribute_one(trace, pkey, stable_ts, cause))
    return out


def analyze(
    events, keys: Optional[Iterable[str]] = None,
    max_sends: Optional[int] = None,
    origin: Optional[str] = None,
) -> "BlameTable":
    """Full pipeline: trace events → span trees → aggregated blame, of
    every origin's sends or (what a node's ``blame()`` asks, off a ring
    the whole cluster may share) of ``origin``'s only."""
    trees = build_span_trees(events, keys=keys, max_sends=max_sends)
    table = BlameTable()
    for attribution in analyze_trees(trees, keys=keys):
        if origin is None or attribution.origin == origin:
            table.add(attribution)
    return table


class _KeyStats:
    __slots__ = ("sends", "attributed", "blamed", "segment_s", "total_s")

    def __init__(self):
        self.sends = 0
        self.attributed = 0
        self.blamed: Dict[str, int] = {}
        self.segment_s: Dict[str, float] = {s: 0.0 for s in SEGMENTS}
        self.total_s = 0.0


class BlameTable:
    """Per-predicate-key aggregation of critical-path attributions."""

    def __init__(self):
        self._keys: Dict[str, _KeyStats] = {}
        self.attributions: List[Attribution] = []

    def add(self, attribution: Attribution) -> None:
        self.attributions.append(attribution)
        stats = self._keys.setdefault(attribution.key, _KeyStats())
        stats.sends += 1
        stats.total_s += attribution.total_s
        if attribution.attributed:
            stats.attributed += 1
            blamed = attribution.blamed
            stats.blamed[blamed] = stats.blamed.get(blamed, 0) + 1
            for segment, seconds in attribution.segments.items():
                stats.segment_s[segment] += seconds

    @property
    def sends(self) -> int:
        return sum(s.sends for s in self._keys.values())

    @property
    def attributed(self) -> int:
        return sum(s.attributed for s in self._keys.values())

    @property
    def attribution_rate(self) -> float:
        total = self.sends
        return (self.attributed / total) if total else 0.0

    def keys(self) -> List[str]:
        return sorted(self._keys)

    def summary(self, key: str) -> Dict[str, object]:
        stats = self._keys[key]
        attributed_s = sum(stats.segment_s.values())
        shares = {
            segment: (seconds / attributed_s if attributed_s else 0.0)
            for segment, seconds in stats.segment_s.items()
        }
        blamed = sorted(
            stats.blamed.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return {
            "key": key,
            "sends": stats.sends,
            "attributed": stats.attributed,
            "mean_total_s": stats.total_s / stats.sends if stats.sends else 0.0,
            "blamed": blamed,
            "segment_share": shares,
            "dominant": max(shares.items(), key=lambda kv: kv[1])[0]
            if attributed_s
            else None,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "sends": self.sends,
            "attributed": self.attributed,
            "attribution_rate": self.attribution_rate,
            "keys": {key: self.summary(key) for key in self.keys()},
        }

    def metrics(self) -> Dict[str, float]:
        """Flat ``critpath.*`` metrics for ``Stabilizer.stats()``."""
        out: Dict[str, float] = {
            "critpath.sends": float(self.sends),
            "critpath.attributed": float(self.attributed),
        }
        for key in self.keys():
            summary = self.summary(key)
            if summary["blamed"]:
                top_node, top_count = summary["blamed"][0]
                out[f"critpath.{key}.blamed.{top_node}"] = float(top_count)
            for segment, share in summary["segment_share"].items():
                out[f"critpath.{key}.share.{segment}"] = round(share, 6)
        return out

    def format(self) -> str:
        """The operator-facing text table (``repro blame``)."""
        if not self._keys:
            return "blame: no stabilized sends in trace window\n"
        lines = [
            f"blame: {self.attributed}/{self.sends} sends attributed "
            f"({self.attribution_rate:.1%})",
        ]
        header = (
            f"  {'key':<16} {'sends':>6} {'attr':>5} {'mean':>9} "
            f"{'dominant':<13} {'net%':>5} {'queue%':>6} {'fsync%':>6} "
            f"{'front%':>6}  blamed peers"
        )
        lines.append(header)
        for key in self.keys():
            s = self.summary(key)
            shares = s["segment_share"]
            blamed = ", ".join(
                f"{node}:{count}" for node, count in s["blamed"][:3]
            ) or "-"
            lines.append(
                f"  {key:<16} {s['sends']:>6} {s['attributed']:>5} "
                f"{s['mean_total_s'] * 1000:>7.2f}ms "
                f"{s['dominant'] or '-':<13} "
                f"{shares['network']:>5.0%} {shares['queueing']:>6.0%} "
                f"{shares['fsync']:>6.0%} {shares['frontier_eval']:>6.0%}  "
                f"{blamed}"
            )
        return "\n".join(lines) + "\n"
