"""Hybrid logical/physical clock stabilization: the Okapi-style engine.

After Didona et al. (*Okapi*, PAPERS.md): every send is stamped with a
hybrid logical/physical clock (HLC — physical simulator time, bumped
monotonically and merged with every clock heard, so stamps respect
causality even under skew).  Each node periodically broadcasts a
fixed-size :class:`~repro.transport.messages.ClockFrame` carrying its
clock, the head of its own stream as a ``(seq, stamp)`` point, and one
*stable time* scalar per stability type: "every message stamped at or
before T is granted type ``t`` by me".  The minimum announced stable
time across all nodes is the Global Stable Time (GST); each origin's
stream is then stable up to the highest sequence whose stamp falls at or
below the GST, and the engine bulk-sets that column.

The trade is metadata size vs stabilization latency: control traffic is
O(n) fixed-size frames per interval regardless of message rate (the
ACK-table engine's reports grow with distinct acked cells), but
stability only advances on clock ticks — between broadcasts nothing
stabilizes, so p50 stability latency carries about half a clock
interval of slack.  Like the sequencer engine, the GST is a
cluster-wide scalar: per-node attribution is lost and ``MAX``/``KTH``
predicate forms degrade to MIN timing.  The clock interval is
``max(2 × control_flush_interval_s, 0.01)``: a shade slower than the
ACK-table flush cadence, since the engine exists to trade latency for
fixed-size metadata; raise ``control_interval_s`` to slow it.

Soundness of the stable-time rule rests on two transport facts: data
streams are FIFO per origin, and an origin's stamps strictly increase —
so "I delivered ``origin`` up to seq F" really does mean "I will never
see an ``origin`` message stamped at or below stamp(F) again".
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.strategy import StabilizationStrategy
from repro.transport.messages import ClockFrame

#: Minimum strictly-positive clock advance per local event, so stamps
#: stay unique even when the physical clock stalls within one sim tick.
_TICK_EPSILON = 1e-9


class HybridClockStrategy(StabilizationStrategy):
    """Okapi-style hybrid-clock stabilization; module docstring."""

    name = "hybrid_clock"

    def __init__(self, config):
        super().__init__(config)
        # See module docstring.
        self.clock_interval_s = max(2.0 * config.control_flush_interval_s(), 0.01)
        self._hlc = 0.0
        # Per-origin (seq, stamp) points: our own appended at send time,
        # remote origins' learned from their ClockFrame heads.  Sorted by
        # construction (seqs and stamps both only grow).
        self._points: Dict[int, List[Tuple[int, float]]] = {
            i: [] for i in range(config.node_count())
        }
        # Last announced clock / per-type stable times, per node.
        self._announced_clock: Dict[int, float] = {}
        self._peer_stable: Dict[int, Dict[int, float]] = {}
        self._gst: Dict[int, float] = {}
        # Highest column value already bulk-applied per (origin_idx, type).
        self._applied: Dict[Tuple[int, int], int] = {}
        self._head_seq = 0
        self._head_stamp = 0.0
        self._clock_timer = None
        self._type_count = len(config.type_names())
        self.clock_broadcasts = 0

    # ------------------------------------------------------------------ the clock
    def _tick(self) -> float:
        self._hlc = max(self.carrier.sim.now, self._hlc + _TICK_EPSILON)
        return self._hlc

    def _merge(self, clock: float) -> None:
        if clock > self._hlc:
            self._hlc = clock

    # ------------------------------------------------------------------ lifecycle
    def bind(self, stabilizer) -> None:
        super().bind(stabilizer)
        self._clock_timer = self.carrier.sim.call_later(
            self.clock_interval_s, self._clock_tick
        )

    def close(self) -> None:
        if self._clock_timer is not None:
            self._clock_timer.cancel()
            self._clock_timer = None
        super().close()

    # ------------------------------------------------------------------ steady state
    def on_local_send(self, first: int, last: int):
        stamp = self._tick()
        self._points[self.config.local_index].append((last, stamp))
        self._head_seq = last
        self._head_stamp = stamp
        return super().on_local_send(first, last)

    def _propagate_grant(self, origin: str, type_id: int, seq: int) -> None:
        # Grants only move this node's floors; the world hears about them
        # at the next clock broadcast.  That deferral IS the protocol.
        pass

    def on_type_registered(self, type_id: int) -> None:
        self._type_count = max(self._type_count, type_id + 1)

    def advance_candidates(self) -> None:
        self._broadcast_clock()

    def _clock_tick(self) -> None:
        self._clock_timer = None
        self._broadcast_clock()
        self._clock_timer = self.carrier.sim.call_later(
            self.clock_interval_s, self._clock_tick
        )

    def _broadcast_clock(self) -> None:
        frame = self._make_clock_frame()
        self.clock_broadcasts += 1
        self.carrier.broadcast_frame(frame)
        # Our own announcement participates in the GST minimum too.
        self._note_announcement(
            self.config.local_index, frame.clock, frame.stable_times
        )

    def _make_clock_frame(self) -> ClockFrame:
        return ClockFrame(
            node_index=self.config.local_index,
            clock=self._tick(),
            head_seq=self._head_seq,
            head_stamp=self._head_stamp,
            stable_times=self._local_stable_times(),
        )

    def _local_stable_times(self) -> Dict[int, float]:
        """Per type: the latest time T such that this node has granted
        every message (from every origin) stamped at or before T."""
        local_row = self.config.local_index
        out: Dict[int, float] = {}
        for type_id in range(self._type_count):
            covered = None
            for origin, table in self.tables.items():
                origin_index = self.config.node_index(origin)
                floor = table.get(local_row, type_id)
                time = self._time_covered(origin_index, floor)
                if covered is None or time < covered:
                    covered = time
            out[type_id] = covered if covered is not None else 0.0
        return out

    def _time_covered(self, origin_index: int, floor: int) -> float:
        """Given "granted ``origin`` up to ``floor``", the stamp horizon
        that grant covers (see module docstring for soundness)."""
        if origin_index == self.config.local_index:
            # Our own stream: granted up to `floor`; anything we send
            # later will be stamped above the current clock.
            if floor >= self._head_seq:
                return self._hlc
        else:
            announced = self._announced_clock.get(origin_index)
            points = self._points[origin_index]
            head_seq = points[-1][0] if points else 0
            if announced is not None and floor >= head_seq:
                # We hold everything the origin had sent as of its last
                # announcement; its future stamps exceed that clock.
                return announced
        best = 0.0
        for seq, stamp in self._points[origin_index]:
            if seq > floor:
                break
            best = stamp
        return best

    # ------------------------------------------------------------------ receiving side
    def on_control_frame(self, peer: str, frame) -> None:
        if not isinstance(frame, ClockFrame):
            super().on_control_frame(peer, frame)
            return
        self._merge(frame.clock)
        origin_index = frame.node_index
        if frame.head_seq > 0:
            points = self._points[origin_index]
            if not points or frame.head_seq > points[-1][0]:
                points.append((frame.head_seq, frame.head_stamp))
        self._note_announcement(origin_index, frame.clock, frame.stable_times)

    def _note_announcement(
        self, node_index: int, clock: float, stable_times: Dict[int, float]
    ) -> None:
        prev = self._announced_clock.get(node_index, 0.0)
        if clock > prev:
            self._announced_clock[node_index] = clock
        mine = self._peer_stable.setdefault(node_index, {})
        for type_id, stable in stable_times.items():
            if stable > mine.get(type_id, 0.0):
                mine[type_id] = stable
        self._recompute_gst()

    def _recompute_gst(self) -> None:
        # GST per type: the minimum announced stable time across ALL
        # nodes — one silent node pins the GST at zero (liveness needs
        # everyone's clock frames, exactly as MIN needs everyone's acks).
        node_count = self.config.node_count()
        advanced_types: List[int] = []
        for type_id in range(self._type_count):
            gst = None
            for node in range(node_count):
                stable = self._peer_stable.get(node, {}).get(type_id, 0.0)
                if gst is None or stable < gst:
                    gst = stable
            if gst and gst > self._gst.get(type_id, 0.0):
                self._gst[type_id] = gst
                advanced_types.append(type_id)
        if advanced_types:
            self._apply_gst(advanced_types)

    def _apply_gst(self, type_ids: List[int]) -> None:
        tracer = self.tracer
        for origin in self.config.node_names:
            origin_index = self.config.node_index(origin)
            points = self._points[origin_index]
            if not points:
                continue
            cells = []
            for type_id in type_ids:
                gst = self._gst[type_id]
                stable_seq = 0
                for seq, stamp in points:
                    if stamp > gst:
                        break
                    stable_seq = seq
                if stable_seq > self._applied.get((origin_index, type_id), 0):
                    self._applied[(origin_index, type_id)] = stable_seq
                    cells.append((type_id, stable_seq))
            if cells:
                if tracer.enabled:
                    tracer.emit(
                        self.config.local,
                        "strategy.hybrid_clock.stable",
                        origin=origin,
                        cells=len(cells),
                    )
                self._apply_stable(origin, cells)
            self._prune_points(origin_index)

    def _prune_points(self, origin_index: int) -> None:
        """Drop stamp points below the applied stable floor, keeping one
        guard point at or below it.

        The floor is the minimum applied-stable seq over *active* types
        only: a type nobody grants (``persisted`` without durability, an
        app ack type not yet in use) would pin the floor at zero and the
        point list would grow forever.  Pruning past an inactive type's
        floor is safe — coverage claims stay true (grant floors are
        monotone) and receivers latch announced stable times with max, so
        a conservative re-announcement can only delay stability, never
        corrupt it."""
        floor = min(
            (
                applied
                for (oi, _t), applied in self._applied.items()
                if oi == origin_index and applied > 0
            ),
            default=0,
        )
        points = self._points[origin_index]
        keep_from = 0
        for i, (seq, _stamp) in enumerate(points):
            if seq <= floor:
                keep_from = i
            else:
                break
        if keep_from > 0:
            del points[:keep_from]

    # ------------------------------------------------------------------ recovery
    def full_state_frames(self, peer: str) -> list:
        # One clock frame rebuilds everything a peer needs from us: our
        # head point, clock, and stable times.
        return [self._make_clock_frame()]

    def on_catchup(self) -> None:
        self._broadcast_clock()

    def snapshot(self) -> dict:
        return {
            "hlc": self._hlc,
            "head": [self._head_seq, self._head_stamp],
            "points": {
                str(origin_index): [[seq, stamp] for seq, stamp in points]
                for origin_index, points in self._points.items()
                if points
            },
        }

    def restore(self, state: dict) -> None:
        self._hlc = max(self._hlc, float(state.get("hlc", 0.0)))
        head = state.get("head")
        if head:
            self._head_seq, self._head_stamp = int(head[0]), float(head[1])
        for key, points in (state.get("points") or {}).items():
            self._points[int(key)] = [(int(s), float(t)) for s, t in points]

    # ------------------------------------------------------------------ introspection
    def _engine_stats(self) -> Dict[str, float]:
        return {
            "clock_broadcasts": self.clock_broadcasts,
            "points_retained": sum(len(p) for p in self._points.values()),
        }
