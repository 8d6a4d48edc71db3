"""Causal span-tree reconstruction from the lifecycle event ring.

The tracer records *instant* events; what an operator debugging a slow
send needs is the *span tree*: one send's lifecycle — enqueue at the
origin, the WAN hop to each peer, the peer's local acknowledgment (and
the WAL fsync when durability gates it), the batched ACK report's hop
back, and the frontier advance that finally covers the sequence —
stitched together across every node on one timeline.

The trace context that makes this possible is the ``(origin, seq)`` key
(plus the ``shard`` tag under sharding, because per-shard stacks run
independent sequence spaces).  Data frames carry it in their chunk
metas (``data.frame_send`` records the covered ``[first_seq,
last_seq]`` run), control flushes carry it in their ``heads`` (the
``[origin, type, seq]`` ack watermarks aboard each frame), a data-channel
ACK that is a ``received`` report names the last sequence it covers at
both ends (``data.ack_send`` at the receiver, ``data.ack_receive`` at
the origin), and every per-sequence instant event names it outright.  :func:`build_span_trees`
replays a ring (or a JSONL trace file) once, indexes those watermarks,
and assembles one :class:`SpanNode` tree per sampled send.

Export: :func:`chrome_span_trace` renders the trees as *nested*
chrome://tracing spans (async ``b``/``e`` events keyed per send, so
overlapping in-flight sends don't fight over one stack), loadable next
to the instant-event export from :meth:`Tracer.chrome_trace`.
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "SpanNode",
    "SendTrace",
    "build_span_trees",
    "chrome_span_trace",
    "load_events",
]

#: (origin, shard-or-None, seq) — the trace-context key of one send.
SendKey = Tuple[str, Optional[int], int]


def load_events(path) -> List[Dict[str, object]]:
    """Load a JSONL trace file (``Tracer.to_jsonl_file``) as event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _as_dicts(events) -> List[Dict[str, object]]:
    out = []
    for ev in events:
        if isinstance(ev, dict):
            out.append(ev)
        else:  # TraceEvent
            out.append(ev.to_dict())
    # Stable sort: ring/file order is preserved for equal timestamps,
    # which span assembly relies on (cause precedes effect at one node).
    out.sort(key=lambda d: d["ts"])
    return out


class _WatermarkSeries:
    """Earliest time each watermark value was reached, bisectable.

    Appends keep only strictly increasing values with their first
    timestamp; ``first_covering(seq)`` answers "when did this series
    first reach ``seq`` or beyond?" — the primitive every ACK/fsync/
    frame lookup reduces to.  A frontier's coverage is the same series
    over the advances' new values: an advance that re-walks a range
    after a predicate redefinition adds nothing (only the first covering
    counts, matching the instruments' high-water rule), and each kept
    entry also remembers its *cause* — the table update that triggered
    it — for :meth:`covering`.
    """

    __slots__ = ("seqs", "ts", "causes")

    def __init__(self):
        self.seqs: List[int] = []
        self.ts: List[float] = []
        self.causes: List[Optional[dict]] = []

    def append(self, ts: float, seq: int, cause: Optional[dict] = None) -> None:
        if not self.seqs or seq > self.seqs[-1]:
            self.seqs.append(seq)
            self.ts.append(ts)
            self.causes.append(cause)

    def covering(self, seq: int) -> Optional[Tuple[float, Optional[dict]]]:
        """``(ts, cause)`` of the first entry at or beyond ``seq``."""
        i = bisect.bisect_left(self.seqs, seq)
        return (self.ts[i], self.causes[i]) if i < len(self.seqs) else None

    def first_covering(self, seq: int) -> Optional[float]:
        covering = self.covering(seq)
        return None if covering is None else covering[0]


class _TraceIndex:
    """Single-pass index of every watermark series span assembly needs."""

    def __init__(self, events: Iterable):
        # (origin, shard, seq) -> (ts, node) of the data.enqueue
        self.enqueues: Dict[SendKey, Tuple[float, str]] = {}
        # (origin_node, shard, peer) -> frame [first, last] runs by last
        self.frames: Dict[Tuple, List[Tuple[float, int, int]]] = {}
        # (node, origin, shard) -> receive / deliver / fsync watermarks
        self.receives: Dict[Tuple, _WatermarkSeries] = {}
        self.fsyncs: Dict[Tuple, _WatermarkSeries] = {}
        # (node, origin, shard, type) -> local-ack watermarks
        self.acks: Dict[Tuple, _WatermarkSeries] = {}
        # (node, dest_peer, origin, shard, type) -> control.send heads
        self.ctrl_sends: Dict[Tuple, _WatermarkSeries] = {}
        # (node, from_peer, origin, shard, type) -> control.receive heads
        self.ctrl_receives: Dict[Tuple, _WatermarkSeries] = {}
        # (node, origin, shard, key) -> frontier coverage with causes
        self.advances: Dict[Tuple, _WatermarkSeries] = {}
        # Per-node most recent table-update cause, for advance blame.
        last_cause: Dict[str, dict] = {}

        for ev in _as_dicts(events):
            etype = ev.get("etype")
            node = ev.get("node")
            ts = ev.get("ts", 0.0)
            shard = ev.get("shard")
            if etype == "data.enqueue":
                key = (ev["origin"], shard, ev["seq"])
                self.enqueues.setdefault(key, (ts, node))
            elif etype == "data.frame_send":
                if "last_seq" in ev:
                    runs = self.frames.setdefault((node, shard, ev["peer"]), [])
                    # A replay re-sends what already left: keep the first send.
                    if not runs or ev["last_seq"] > runs[-1][2]:
                        runs.append((ts, ev["first_seq"], ev["last_seq"]))
            elif etype == "data.receive":
                series = self.receives.setdefault(
                    (node, ev["origin"], shard), _WatermarkSeries()
                )
                series.append(ts, ev["seq"])
                last_cause[node] = {
                    "kind": "data.receive", "origin": ev["origin"],
                    "shard": shard, "seq": ev["seq"], "ts": ts,
                }
            elif etype == "wal.fsync":
                series = self.fsyncs.setdefault(
                    (node, ev["origin"], shard), _WatermarkSeries()
                )
                series.append(ts, ev["seq"])
            elif etype == "ack.local":
                series = self.acks.setdefault(
                    (node, ev["origin"], shard, ev["type"]), _WatermarkSeries()
                )
                series.append(ts, ev["seq"])
                last_cause[node] = {
                    "kind": "ack.local", "origin": ev["origin"],
                    "shard": shard, "seq": ev["seq"], "type": ev["type"],
                    "ts": ts,
                }
            elif etype == "control.send":
                for origin, type_name, seq in ev.get("heads", ()):
                    series = self.ctrl_sends.setdefault(
                        (node, ev["peer"], origin, shard, type_name),
                        _WatermarkSeries(),
                    )
                    series.append(ts, seq)
            elif etype == "control.receive":
                heads = ev.get("heads")
                if heads:
                    for type_name, seq in heads:
                        series = self.ctrl_receives.setdefault(
                            (node, ev["peer"], ev["origin"], shard, type_name),
                            _WatermarkSeries(),
                        )
                        series.append(ts, seq)
                    last_cause[node] = {
                        "kind": "control.receive", "origin": ev["origin"],
                        "shard": shard, "peer": ev["peer"],
                        "heads": list(heads), "ts": ts,
                    }
            elif etype == "data.ack_send":
                # The data channel's ACK: the received report to the origin.
                series = self.ctrl_sends.setdefault(
                    (node, ev["origin"], ev["origin"], shard, "received"),
                    _WatermarkSeries(),
                )
                series.append(ts, ev["seq"])
            elif etype == "data.ack_receive":
                series = self.ctrl_receives.setdefault(
                    (node, ev["peer"], node, shard, "received"),
                    _WatermarkSeries(),
                )
                series.append(ts, ev["seq"])
                last_cause[node] = {
                    "kind": "data.ack_receive", "origin": node,
                    "shard": shard, "peer": ev["peer"],
                    "heads": [["received", ev["seq"]]], "ts": ts,
                }
            elif etype == "frontier.advance":
                cause = last_cause.get(node)
                if cause is not None and (
                    cause.get("origin") != ev["origin"]
                    or cause.get("shard") != shard
                ):
                    cause = None
                series = self.advances.setdefault(
                    (node, ev["origin"], shard, ev["key"]), _WatermarkSeries()
                )
                series.append(ts, ev["frontier"], cause)

    # ------------------------------------------------------------ lookups
    def send_ts(self, origin_node, shard, peer, seq) -> Optional[float]:
        """When did ``origin_node`` first put ``seq`` on the wire to
        ``peer``: the cut of the frame that carried it."""
        runs = self.frames.get((origin_node, shard, peer))
        if runs:
            lasts = [last for _ts, _first, last in runs]
            i = bisect.bisect_left(lasts, seq)
            if i < len(runs):
                ts, first, _last = runs[i]
                if first <= seq:
                    return ts
        return None

    def ack_ts(self, node, origin, shard, seq, type_name=None):
        """``(ts, type)`` of the local ack at ``node`` covering ``seq``
        — for a specific type, or the *latest* over all acked types (the
        chain that actually gated the peer's report)."""
        if type_name is not None:
            series = self.acks.get((node, origin, shard, type_name))
            if series is None:
                return None
            ts = series.first_covering(seq)
            return None if ts is None else (ts, type_name)
        best = None
        for (n, o, sh, t), series in self.acks.items():
            if n == node and o == origin and sh == shard:
                ts = series.first_covering(seq)
                if ts is not None and (best is None or ts > best[0]):
                    best = (ts, t)
        return best

    def report_hop(self, peer, dest, origin, shard, seq, type_name):
        """``(sent_ts, received_ts)`` of the control report that carried
        ``peer``'s ack of ``(origin, seq, type)`` to ``dest``."""
        sent = self.ctrl_sends.get((peer, dest, origin, shard, type_name))
        received = self.ctrl_receives.get((dest, peer, origin, shard, type_name))
        sent_ts = sent.first_covering(seq) if sent is not None else None
        received_ts = (
            received.first_covering(seq) if received is not None else None
        )
        return sent_ts, received_ts


class SpanNode:
    """One span of a send's lifecycle: a named ``[start, end]`` interval
    at one node, with nested children."""

    __slots__ = ("name", "node", "start", "end", "children", "meta")

    def __init__(self, name, node, start, end, meta=None):
        self.name = name
        self.node = node
        self.start = start
        self.end = end
        self.children: List["SpanNode"] = []
        self.meta: Dict[str, object] = meta or {}

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "meta": dict(self.meta),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanNode({self.name!r}@{self.node!r} "
            f"[{self.start:.6f},{self.end:.6f}] x{len(self.children)})"
        )


class SendTrace:
    """The reconstructed lifecycle of one send."""

    __slots__ = ("origin", "shard", "seq", "root", "stable", "peers")

    def __init__(self, origin, shard, seq, root, stable, peers):
        self.origin = origin
        self.shard = shard
        self.seq = seq
        #: The span tree (root is ``send`` at the origin).
        self.root = root
        #: key -> (ts, cause) of the first frontier advance covering the
        #: seq *at the origin node*.
        self.stable: Dict[str, Tuple[float, Optional[dict]]] = stable
        #: peer -> per-hop timestamps dict (``send``/``receive``/``ack``/
        #: ``ack_type``/``fsync``/``report_sent``/``report_received``).
        self.peers: Dict[str, Dict[str, object]] = peers

    @property
    def key(self) -> SendKey:
        return (self.origin, self.shard, self.seq)

    @property
    def complete(self) -> bool:
        """Enqueued, stabilized, and at least one peer chain closed the
        loop (data out, ack report back) — the bar ``make trace-smoke``
        holds the demo scenario to."""
        return bool(self.stable) and any(
            p.get("receive") is not None and p.get("report_received") is not None
            for p in self.peers.values()
        )

    @property
    def cross_node(self) -> bool:
        return any(p.get("receive") is not None for p in self.peers.values())

    def label(self) -> str:
        shard = f"s{self.shard}/" if self.shard is not None else ""
        return f"{shard}{self.origin}#{self.seq}"


def build_span_trees(
    events,
    keys: Optional[Iterable[str]] = None,
    max_sends: Optional[int] = None,
) -> Dict[SendKey, SendTrace]:
    """Reconstruct one :class:`SendTrace` per sampled send.

    ``events`` is a ring (``tracer.events()``), a list of event dicts,
    or anything iterable of either; ``keys`` restricts the predicate
    keys considered for stabilization (default: all seen).
    """
    index = _TraceIndex(events)
    key_filter = set(keys) if keys is not None else None
    trees: Dict[SendKey, SendTrace] = {}
    for send_key, (enqueue_ts, origin_node) in sorted(
        index.enqueues.items(), key=lambda item: item[1][0]
    ):
        if max_sends is not None and len(trees) >= max_sends:
            break
        origin, shard, seq = send_key
        # Stabilization at the origin node (the send→stable the paper
        # measures), one entry per predicate key that covered the seq.
        stable: Dict[str, Tuple[float, Optional[dict]]] = {}
        for (node, adv_origin, adv_shard, pkey), series in index.advances.items():
            if node != origin_node or adv_origin != origin or adv_shard != shard:
                continue
            if key_filter is not None and pkey not in key_filter:
                continue
            covering = series.covering(seq)
            if covering is not None:
                stable[pkey] = covering

        # Per-peer replication chains: every node that received the seq.
        peers: Dict[str, Dict[str, object]] = {}
        for (node, rcv_origin, rcv_shard), series in index.receives.items():
            if rcv_origin != origin or rcv_shard != shard or node == origin_node:
                continue
            receive_ts = series.first_covering(seq)
            if receive_ts is None:
                continue
            chain: Dict[str, object] = {
                "send": index.send_ts(origin_node, shard, node, seq),
                "receive": receive_ts,
            }
            ack = index.ack_ts(node, origin, shard, seq)
            if ack is not None:
                chain["ack"], chain["ack_type"] = ack
                fsync = index.fsyncs.get((node, origin, shard))
                if fsync is not None:
                    chain["fsync"] = fsync.first_covering(seq)
                sent_ts, received_ts = index.report_hop(
                    node, origin_node, origin, shard, seq, chain["ack_type"]
                )
                chain["report_sent"] = sent_ts
                chain["report_received"] = received_ts
            peers[node] = chain

        root_end = enqueue_ts
        if stable:
            root_end = max(ts for ts, _cause in stable.values())
        elif peers:
            root_end = max(
                p.get("report_received") or p["receive"] for p in peers.values()
            )
        root = SpanNode(
            "send", origin_node, enqueue_ts, root_end,
            meta={"origin": origin, "seq": seq, "shard": shard},
        )
        for peer, chain in sorted(peers.items()):
            t_send = chain.get("send")
            t_receive = chain["receive"]
            t_ack = chain.get("ack")
            t_fsync = chain.get("fsync")
            t_report_sent = chain.get("report_sent")
            t_report_received = chain.get("report_received")
            peer_end = t_report_received or t_ack or t_receive
            peer_span = SpanNode(
                f"replicate:{peer}", peer, t_send or enqueue_ts, peer_end,
                meta={"peer": peer},
            )
            if t_send is not None:
                peer_span.children.append(
                    SpanNode("net:data", peer, t_send, t_receive)
                )
            if t_ack is not None:
                deliver = SpanNode(
                    "deliver", peer, t_receive, t_ack,
                    meta={"type": chain.get("ack_type")},
                )
                if t_fsync is not None and t_fsync <= t_ack:
                    deliver.children.append(
                        SpanNode("fsync", peer, t_receive, t_fsync)
                    )
                peer_span.children.append(deliver)
                if t_report_sent is not None:
                    peer_span.children.append(
                        SpanNode("ack:batch", peer, t_ack, t_report_sent)
                    )
                    if t_report_received is not None:
                        peer_span.children.append(
                            SpanNode(
                                "net:ack", peer, t_report_sent,
                                t_report_received,
                            )
                        )
            root.children.append(peer_span)
        for pkey, (ts, _cause) in sorted(stable.items()):
            root.children.append(
                SpanNode(
                    f"stable:{pkey}", origin_node,
                    min(ts, root_end), ts, meta={"key": pkey},
                )
            )
        trees[send_key] = SendTrace(origin, shard, seq, root, stable, peers)
    return trees


def chrome_span_trace(trees: Dict[SendKey, SendTrace]) -> Dict[str, object]:
    """Render span trees as a Chrome ``trace_event`` document of *nested*
    async spans (``ph: "b"``/``"e"``, one id per send), loadable in
    chrome://tracing / Perfetto alongside the instant-event export."""
    pids: Dict[str, int] = {}
    meta: List[Dict[str, object]] = []
    events: List[Dict[str, object]] = []

    def pid_of(node: str) -> int:
        if node not in pids:
            pids[node] = len(pids) + 1
            meta.append({
                "name": "process_name", "ph": "M", "pid": pids[node],
                "tid": 0, "args": {"name": f"node {node}"},
            })
        return pids[node]

    def emit(span: SpanNode, trace_id: str) -> None:
        pid = pid_of(span.node)
        base = {
            "cat": "span", "id": trace_id, "name": span.name,
            "pid": pid, "tid": 1,
        }
        events.append({
            **base, "ph": "b", "ts": span.start * 1e6,
            "args": {k: v for k, v in span.meta.items() if v is not None},
        })
        for child in span.children:
            emit(child, trace_id)
        events.append({**base, "ph": "e", "ts": span.end * 1e6, "args": {}})

    complete = 0
    for trace in trees.values():
        emit(trace.root, trace.label())
        if trace.complete:
            complete += 1
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"sends": len(trees), "complete": complete},
    }
