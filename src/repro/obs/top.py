"""``repro top``: a terminal dashboard over the JSONL snapshot stream.

Pure rendering — :func:`render_top` turns one snapshot record (the
format :class:`~repro.obs.export.SnapshotWriter` appends) into a text
frame, optionally diffing against the previous record so counters
become rates.  The CLI renders the last record once, or tails the file
(``--follow``); nothing here touches a terminal library, so tests just
assert on the string.

The frame answers the on-call glance questions: per node, is the
frontier keeping up (per-key lag, send→stable p99), is the edge
shedding (admission rate and shed share), are breakers open, and —
when a cluster block is present — how far along a live rebalance is.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.catalogue import resolve

__all__ = ["render_top"]


# The keys the columns read, checked against the catalogue when this
# module is imported (a family by its literal prefix): a column over a
# name nothing declares is a ``KeyError`` here, not a silent zero on the
# dashboard.
_SENT = resolve("messages_sent").prefix
_LAG = resolve("frontier_lag.<origin>.<type>").prefix
_LATENCY = resolve("stability_latency.<key>").prefix
_OFFERED = resolve("admission.offered").prefix
_ADMITTED = resolve("admission.admitted").prefix
_SHED = resolve("admission.shed").prefix
_BREAKERS_OPEN = resolve("breaker.open").prefix
_BREAKERS = resolve("breaker.count").prefix
_SHARDS = resolve("shards_owned").prefix
_MIGRATING = resolve("rebalance.shards_migrating").prefix
_COMPLETED = resolve("rebalance.completed").prefix
_HANDOFF = resolve("rebalance.handoff_bytes").prefix
_RETRIES = resolve("rebalance.transfer_retries").prefix
_DRAIN_TIMEOUTS = resolve("rebalance.drain_timeouts").prefix


def _metric(snap: Dict[str, object], key: str, default: float = 0.0) -> float:
    try:
        return float(snap.get("metrics", {}).get(key, default))
    except (TypeError, ValueError):
        return default


def _max_prefixed(snap: Dict[str, object], prefix: str) -> float:
    best = 0.0
    for key, value in snap.get("metrics", {}).items():
        if key.startswith(prefix):
            try:
                best = max(best, float(value))
            except (TypeError, ValueError):
                continue
    return best


def _p99s(snap: Dict[str, object]) -> Dict[str, float]:
    # Plain nodes expose ``stability_latency.<key>``; sharded nodes
    # prefix per shard (``s3.stability_latency.<key>``) — show the worst
    # shard per key, since a hot shard is exactly what top must surface.
    out: Dict[str, float] = {}
    marker = _LATENCY
    for name, summary in snap.get("histograms", {}).items():
        at = name.find(marker)
        if at < 0:
            continue
        key = name[at + len(marker):]
        out[key] = max(out.get(key, 0.0), summary.get("p99", 0.0))
    return out


def _rate(now: float, prev: Optional[float], dt: float) -> float:
    if prev is None or dt <= 0:
        return 0.0
    return max(0.0, now - prev) / dt


def render_top(
    record: Dict[str, object],
    prev: Optional[Dict[str, object]] = None,
    width: int = 100,
) -> str:
    """Render one dashboard frame from a snapshot record."""
    ts = float(record.get("ts", 0.0))
    nodes: Dict[str, Dict] = record.get("nodes", {})
    prev_nodes: Dict[str, Dict] = (prev or {}).get("nodes", {})
    dt = ts - float((prev or {}).get("ts", 0.0)) if prev else 0.0

    lines: List[str] = []
    lines.append(
        f"repro top — t={ts:.3f}s  nodes={len(nodes)}"
        + (f"  (Δ{dt:.3f}s)" if prev else "")
    )
    header = (
        f"{'node':<10} {'sent/s':>8} {'lag':>6} {'p99 ms (per key)':<28} "
        f"{'adm/s':>7} {'shed%':>6} {'brk':>5} {'shards':>6}"
    )
    lines.append(header[:width])
    lines.append("-" * min(width, len(header)))
    for name in sorted(nodes):
        snap = nodes[name]
        before = prev_nodes.get(name)
        sent = _metric(snap, _SENT)
        sent_rate = _rate(sent, before and _metric(before, _SENT), dt)
        lag = _max_prefixed(snap, _LAG)
        p99s = _p99s(snap)
        p99_text = " ".join(
            f"{key}:{value * 1000:.1f}" for key, value in sorted(p99s.items())
        ) or "-"
        offered = _metric(snap, _OFFERED)
        shed = _metric(snap, _SHED)
        adm_rate = _rate(
            _metric(snap, _ADMITTED), before and _metric(before, _ADMITTED), dt
        )
        shed_pct = (shed / offered) if offered else 0.0
        brk_open = int(_metric(snap, _BREAKERS_OPEN))
        brk_total = int(_metric(snap, _BREAKERS))
        brk = f"{brk_open}/{brk_total}" if brk_total else "-"
        shards = int(_metric(snap, _SHARDS, -1))
        lines.append(
            (
                f"{name:<10} {sent_rate:>8.1f} {lag:>6.0f} {p99_text:<28.28} "
                f"{adm_rate:>7.1f} {shed_pct:>6.1%} {brk:>5} "
                f"{shards if shards >= 0 else '-':>6}"
            )[:width]
        )

    cluster = record.get("cluster") or {}
    if cluster:
        migrating = int(float(cluster.get(_MIGRATING, 0)))
        completed = int(float(cluster.get(_COMPLETED, 0)))
        handoff = float(cluster.get(_HANDOFF, 0.0))
        retries = int(float(cluster.get(_RETRIES, 0)))
        timeouts = int(float(cluster.get(_DRAIN_TIMEOUTS, 0)))
        lines.append(
            f"rebalance: migrating={migrating} completed={completed} "
            f"handoff={handoff / 1024:.1f}KiB retries={retries} "
            f"drain_timeouts={timeouts}"[:width]
        )
    alerts = record.get("alerts") or []
    if alerts:
        for alert in alerts:
            lines.append(
                f"ALERT {alert.get('rule')} window={alert.get('window_s')} "
                f"burn={alert.get('burn_short', 0):.1f}x"[:width]
            )
    else:
        lines.append("alerts: none")
    return "\n".join(lines) + "\n"
