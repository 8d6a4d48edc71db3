"""Structured event tracer with a bounded flight-recorder ring.

Every instrumented site in the stack stamps lifecycle events —
``data.enqueue``, ``data.frame_send``, ``transport.retransmit``,
``data.receive``, ``transport.ack``, ``frontier.advance``,
``waiter.wake``, ``monitor.fire``, ``wal.append``, ``wal.fsync`` — into
one :class:`Tracer`.  The clock is injected: the sim kernel's virtual
clock when running simulated, wall clock otherwise.

The ring is bounded (``capacity`` events, oldest evicted first) so it
doubles as a flight recorder: the chaos harness dumps it on invariant
failure.  Export formats are JSONL (one event per line) and Chrome's
``trace_event`` JSON, loadable in chrome://tracing / Perfetto — nodes
map to processes and per-origin streams to threads.

Instrumented call sites guard with a single flag check::

    if tracer.enabled:
        tracer.emit(node, "data.receive", origin=origin, seq=seq)

so disabled tracing costs one attribute read per site.  ``NULL_TRACER``
is the shared disabled singleton every component defaults to.
"""

from __future__ import annotations

import json
import time
import zlib
from collections import deque
from typing import Callable, Dict, List, Optional

__all__ = ["TraceEvent", "Tracer", "NULL_TRACER"]


class TraceEvent:
    """One timestamped lifecycle event."""

    __slots__ = ("ts", "node", "etype", "fields")

    def __init__(self, ts: float, node: str, etype: str, fields: Dict[str, object]):
        self.ts = ts
        self.node = node
        self.etype = etype
        self.fields = fields

    def to_dict(self) -> Dict[str, object]:
        return {"ts": self.ts, "node": self.node, "etype": self.etype, **self.fields}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.ts:.6f}, {self.node!r}, {self.etype!r}, {self.fields!r})"


class Tracer:
    """Bounded ring of :class:`TraceEvent`, with JSONL/Chrome export.

    ``clock`` is any zero-arg callable returning seconds; pass the sim
    kernel's :meth:`~repro.sim.kernel.Simulator.clock` for virtual time,
    or leave ``None`` for wall clock (``time.monotonic``).
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = 65536,
        enabled: bool = True,
        sample_shift: int = 0,
        sample_seed: int = 0,
    ):
        self.clock = clock if clock is not None else time.monotonic
        self.capacity = capacity
        self.enabled = enabled
        self._ring: deque = deque(maxlen=capacity)
        #: Total events ever emitted; ``dropped`` is this minus the ring.
        self.emitted = 0
        self._null = False
        # Head-based per-send sampling: a (origin, seq) lifecycle is
        # either traced at every node or at none.  The decision is a
        # seeded hash, so every node reaches the same verdict with no
        # extra wire bits — 1 in 2**sample_shift sends are kept (shift 0:
        # everything, the default; benches run shift 6 = 1/64).
        if sample_shift < 0:
            raise ValueError("sample_shift must be >= 0")
        self.sample_shift = sample_shift
        self.sample_seed = sample_seed
        self._sample_mask = (1 << sample_shift) - 1
        self._sample_salt = zlib.crc32(str(sample_seed).encode("ascii"))

    def sampled(self, origin: str, seq: int) -> bool:
        """Head-based sampling verdict for one send's lifecycle.

        Call sites for per-sequence events guard emission with
        ``tracer.enabled`` first, then ``tracer.sampled(origin, seq)``
        inside the guarded block; events not tied to one sequence
        (frames, flushes, faults, alerts) stay unsampled.
        """
        if not self._sample_mask:
            return True
        key = f"{origin}#{seq}".encode("ascii", "replace")
        return (zlib.crc32(key, self._sample_salt) & self._sample_mask) == 0

    def emit(self, node: str, etype: str, **fields: object) -> None:
        """Record one event.  Call sites guard on :attr:`enabled` first."""
        if not self.enabled:
            return
        self.emitted += 1
        self._ring.append(TraceEvent(self.clock(), node, etype, fields))

    def enable(self) -> None:
        if self._null:
            raise RuntimeError(
                "NULL_TRACER is the shared disabled singleton; "
                "create a Tracer() instead of enabling it"
            )
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._ring.clear()
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound."""
        return self.emitted - len(self._ring)

    def events(self) -> List[TraceEvent]:
        return list(self._ring)

    def tail(self, n: int) -> List[TraceEvent]:
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    # ----------------------------------------------------------- export

    def jsonl_lines(self) -> List[str]:
        return [json.dumps(ev.to_dict(), sort_keys=True) for ev in self._ring]

    def to_jsonl_file(self, path) -> int:
        """Write one JSON object per line; returns the event count."""
        lines = self.jsonl_lines()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        return len(lines)

    def chrome_trace(self) -> Dict[str, object]:
        """The ring as a Chrome ``trace_event`` document.

        Nodes become processes, per-origin streams become threads, and
        every lifecycle event is an instant event (``ph: "i"``) carrying
        its fields in ``args``.  Valid JSON regardless of how much the
        ring has truncated: eviction is whole-event.
        """
        pids: Dict[str, int] = {}
        tids: Dict[tuple, int] = {}
        events: List[Dict[str, object]] = []
        meta: List[Dict[str, object]] = []

        def pid_of(node: str) -> int:
            if node not in pids:
                pids[node] = len(pids) + 1
                meta.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pids[node],
                        "tid": 0,
                        "args": {"name": f"node {node}"},
                    }
                )
            return pids[node]

        def tid_of(pid: int, lane: str) -> int:
            key = (pid, lane)
            if key not in tids:
                tids[key] = sum(1 for (p, _l) in tids if p == pid) + 1
                meta.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tids[key],
                        "args": {"name": lane},
                    }
                )
            return tids[key]

        for ev in self._ring:
            pid = pid_of(ev.node)
            lane = ev.fields.get("origin") or ev.fields.get("peer") or "local"
            tid = tid_of(pid, str(lane))
            events.append(
                {
                    "name": ev.etype,
                    "cat": ev.etype.split(".", 1)[0],
                    "ph": "i",
                    "s": "t",
                    "ts": ev.ts * 1e6,  # trace_event timestamps are µs
                    "pid": pid,
                    "tid": tid,
                    "args": dict(ev.fields),
                }
            )
        return {
            "traceEvents": meta + events,
            "displayTimeUnit": "ms",
            "otherData": {"emitted": self.emitted, "dropped": self.dropped},
        }

    def to_chrome_file(self, path) -> int:
        """Write the Chrome ``trace_event`` JSON; returns the event count."""
        doc = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return len(self._ring)

    def format_tail(self, n: int = 50) -> str:
        """Human-readable last-``n`` events, for failure messages."""
        lines = []
        for ev in self.tail(n):
            fields = " ".join(f"{k}={v}" for k, v in ev.fields.items())
            lines.append(f"  [{ev.ts:12.6f}] {ev.node:>10s} {ev.etype:<20s} {fields}")
        return "\n".join(lines)

    def scoped(self, **scope: object) -> "Tracer":
        """A view of this tracer that stamps ``scope`` fields onto every
        event (e.g. ``tracer.scoped(shard=3)`` for per-shard stacks).
        Events still land in this ring; the view shares its lifecycle.
        """
        return _ScopedTracer(self, scope)


class _ScopedTracer:
    """Write-through tracer view that injects fixed fields on emit.

    Duck-types as :class:`Tracer` at instrumented call sites: ``enabled``
    and ``emitted`` delegate to the base tracer (so flag-guarded sites and
    stats keep working), ``emit`` adds the scope fields, and everything
    else (export, tail formatting, ``len()``) falls through to the base.
    Scope fields lose to explicit per-event fields on collision.
    """

    __slots__ = ("_base", "_scope")

    def __init__(self, base: Tracer, scope: Dict[str, object]):
        self._base = base
        self._scope = dict(scope)

    @property
    def enabled(self) -> bool:
        return self._base.enabled

    @property
    def emitted(self) -> int:
        return self._base.emitted

    def emit(self, node: str, etype: str, **fields: object) -> None:
        self._base.emit(node, etype, **{**self._scope, **fields})

    def scoped(self, **scope: object) -> "Tracer":
        return _ScopedTracer(self._base, {**self._scope, **scope})

    def __len__(self) -> int:
        return len(self._base)

    def __getattr__(self, name: str):
        return getattr(self._base, name)


#: Shared disabled singleton: every instrumented component defaults to
#: this, so the uninstrumented path is one flag check.
NULL_TRACER = Tracer(clock=lambda: 0.0, capacity=1, enabled=False)
NULL_TRACER._null = True
