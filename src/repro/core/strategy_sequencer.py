"""Deferred-update stabilization: the sequencer engine.

After Gunawardhana, Bravo & Rodrigues (*Unobtrusive Deferred Update
Stabilization*, PAPERS.md): instead of every node streaming ACK reports
to every peer (the paper's O(n²) fan-out), grant floors funnel to a
single *sequencer* node per deployment (per shard, under sharding).  The
sequencer tracks, for each ``(origin, type)``, the minimum floor over
all nodes — the globally stable counter — and broadcasts only when that
minimum advances.  Steady-state control traffic is O(n) report streams
in plus O(n) stable broadcasts out.

The trade: receivers learn "stable *everywhere* up to N", never *which*
peer has acknowledged what, so the engine bulk-sets entire table columns
(:meth:`~repro.core.strategy.StabilizationStrategy._apply_stable`) and
per-node predicate forms (``MAX``, ``KTH_MAX``, group subtraction) all
degrade to MIN timing — they fire, but only once the slowest node has
acknowledged.  A crashed sequencer stalls *all* stability advance until
it restarts (restored floors plus every peer's resume re-report rebuild
its min state).  The sequencer is the first node of ``node_names`` (of
the shard's owner set, under sharding), so a deployment places it by
node order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.strategy import StabilizationStrategy
from repro.errors import StabilizerError
from repro.transport.messages import SequencerReportFrame, SequencerStableFrame


class SequencerStrategy(StabilizationStrategy):
    """Deferred-update stabilization via one sequencer; module docstring."""

    name = "sequencer"

    def __init__(self, config):
        super().__init__(config)
        self.sequencer = config.node_names[0]
        self.is_sequencer = config.local == self.sequencer
        # Sequencer-side min tracking: (origin_idx, type_id) -> one floor
        # per node, and the last broadcast stable value.
        self._floors: Dict[Tuple[int, int], List[int]] = {}
        self._stable: Dict[Tuple[int, int], int] = {}
        self.reports_sent = 0
        self.stable_broadcasts = 0
        self.stable_entries = 0

    # ------------------------------------------------------------------ reporting side
    # Grant floors ride the base class's report batcher — the same code
    # and cadence knobs as the ACK-table engine (control_batch /
    # control_interval_s), so the benchmark compares protocols,
    # not tuning.
    def on_local_send(self, first: int, last: int):
        cells = super().on_local_send(first, last)
        # The origin's own completeness jump is itself a grant floor the
        # sequencer must hear about, or nothing would ever stabilize.
        for type_id, seq in cells:
            self._batch_report(self.config.local, type_id, seq)
        return cells

    def _ship_batch(self, pending: Dict[str, Dict[int, int]]) -> None:
        node_index = self.config.node_index
        floors = {
            (node_index(origin), type_id): seq
            for origin, cells in pending.items()
            for type_id, seq in cells.items()
        }
        self.reports_sent += len(floors)
        if self.is_sequencer:
            # The sequencer's own grants skip the wire entirely.
            self._absorb(self.local_index, floors)
            return
        frame = SequencerReportFrame(node_index=self.local_index, entries=floors)
        self.carrier.send_frame(self.sequencer, frame)

    # ------------------------------------------------------------------ sequencer side
    def _absorb(self, reporter: int, entries: Dict[Tuple[int, int], int]) -> None:
        """Fold one node's grant floors into the min state; broadcast any
        (origin, type) whose global minimum advanced."""
        node_count = self.config.node_count()
        delta: Dict[Tuple[int, int], int] = {}
        for key, seq in entries.items():
            floors = self._floors.get(key)
            if floors is None:
                floors = self._floors[key] = [0] * node_count
            if seq <= floors[reporter]:
                continue
            floors[reporter] = seq
            stable = min(floors)
            if stable > self._stable.get(key, 0):
                self._stable[key] = stable
                delta[key] = stable
        if not delta:
            return
        self.stable_broadcasts += 1
        self.stable_entries += len(delta)
        if self.tracer.enabled:
            self.tracer.emit(
                self.config.local,
                "strategy.sequencer.stable",
                entries=len(delta),
            )
        frame = SequencerStableFrame(node_index=self.local_index, entries=delta)
        self.carrier.broadcast_frame(frame)
        self._apply_stable_entries(delta)

    # ------------------------------------------------------------------ receiving side
    def on_control_frame(self, peer: str, frame) -> None:
        if isinstance(frame, SequencerReportFrame):
            if not self.is_sequencer:
                raise StabilizerError(
                    f"sequencer report from {peer!r} at non-sequencer node"
                )
            self._absorb(frame.node_index, frame.entries)
            return
        if isinstance(frame, SequencerStableFrame):
            self._apply_stable_entries(frame.entries)
            return
        super().on_control_frame(peer, frame)

    def _apply_stable_entries(
        self, entries: Dict[Tuple[int, int], int]
    ) -> None:
        by_origin: Dict[str, list] = {}
        for (origin_index, type_id), seq in entries.items():
            origin = self.config.node_names[origin_index]
            by_origin.setdefault(origin, []).append((type_id, seq))
        for origin, cells in by_origin.items():
            self._apply_stable(origin, cells)

    # ------------------------------------------------------------------ recovery
    def full_state_frames(self, peer: str) -> list:
        frames = []
        if self.is_sequencer and self._stable:
            # Every stable broadcast the peer may have missed, in one
            # (monotone, so re-sends are safe).
            frames.append(
                SequencerStableFrame(
                    node_index=self.local_index, entries=dict(self._stable)
                )
            )
        if peer == self.sequencer:
            # Our own table rows ARE our grant record; a floor whose
            # report is still batched is left to that report.
            node_index = self.config.node_index
            floors = {
                (node_index(origin), type_id): seq
                for origin, type_id, seq in self._local_floors()
                if type_id not in self._pending.get(origin, ())
            }
            if floors:
                frames.append(
                    SequencerReportFrame(node_index=self.local_index, entries=floors)
                )
        return frames

    def on_catchup(self) -> None:
        # We restarted: floors restored from the snapshot may be behind
        # grants we made after it was taken — but also ahead of anything
        # the sequencer heard if we crashed mid-batch.  Re-report all.
        for origin, type_id, seq in self._local_floors():
            self._batch_report(origin, type_id, seq)
        self.advance_candidates()

    def _local_floors(self) -> List[Tuple[str, int, int]]:
        """This node's granted ``(origin, type_id, seq)`` floors."""
        return [
            (origin, type_id, seq)
            for origin, table in self.tables.items()
            for type_id, seq in enumerate(table.row(self.local_index))
            if seq > 0
        ]

    def snapshot(self) -> dict:
        state = {"sequencer": self.sequencer}
        if self.is_sequencer:
            state["floors"] = [
                [oi, t, list(floors)] for (oi, t), floors in self._floors.items()
            ]
            state["stable"] = [
                [oi, t, seq] for (oi, t), seq in self._stable.items()
            ]
        return state

    def restore(self, state: dict) -> None:
        if self.is_sequencer:
            self._floors = {
                (oi, t): list(floors)
                for oi, t, floors in state.get("floors", [])
            }
            self._stable = {
                (oi, t): seq for oi, t, seq in state.get("stable", [])
            }

    # ------------------------------------------------------------------ introspection
    def _engine_stats(self) -> Dict[str, float]:
        return {
            "reports_sent": self.reports_sent,
            "stable_broadcasts": self.stable_broadcasts,
            "stable_entries": self.stable_entries,
        }
