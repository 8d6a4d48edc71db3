"""The message ACK recorder: a monotonic shared-state table.

Fig. 1's "Message ACK Recorder", inspired by Derecho's shared state table
(SST): one row per WAN node, one column per stability type, each cell the
highest sequence number that node has acknowledged at that level for one
origin's stream.  "Control information is required to be monotonic:
counters or other monotonic data types in which a newer value can
overwrite a prior value" — the table enforces that by ignoring regressions
(a late report carries no new information) and rejecting negative values.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import StabilizerError


class AckTable:
    """Per-origin acknowledgment state for every node and stability type."""

    def __init__(self, node_count: int, type_count: int):
        if node_count <= 0 or type_count <= 0:
            raise StabilizerError("AckTable needs at least one node and type")
        self.node_count = node_count
        self.type_count = type_count
        self._rows: List[List[int]] = [
            [0] * type_count for _ in range(node_count)
        ]

    # -- updates ---------------------------------------------------------------
    def update(self, node: int, type_id: int, seq: int) -> bool:
        """Record "``node`` acknowledged everything up to ``seq``".

        Returns True when the cell advanced; a stale (lower or equal)
        report is ignored and returns False — monotonic overwrite.
        """
        # Every range check of _check, compared inline: this runs once
        # per acknowledgment.
        if not 0 <= node < self.node_count:
            raise StabilizerError(f"node index {node} out of range")
        if not 0 <= type_id < self.type_count:
            raise StabilizerError(f"type id {type_id} out of range")
        if seq < 0:
            raise StabilizerError(f"negative sequence number: {seq}")
        row = self._rows[node]
        if seq <= row[type_id]:
            return False
        row[type_id] = seq
        return True

    def update_many(self, node: int, entries) -> List[Tuple[int, int]]:
        """Apply a batch ``{type_id: seq}``; returns the ``(type_id, seq)``
        cells that advanced, so one multi-entry control frame can drive a
        single cell-precise frontier re-evaluation pass."""
        # The row is resolved (and the node range-checked) once per batch,
        # not once per cell through update(); type ids and sequence
        # numbers come off the wire, so each is still compared — inline.
        self._check(node, 0)
        row = self._rows[node]
        type_count = self.type_count
        advanced = []
        for type_id, seq in entries.items():
            if not 0 <= type_id < type_count:
                raise StabilizerError(f"type id {type_id} out of range")
            if seq < 0:
                raise StabilizerError(f"negative sequence number: {seq}")
            if seq > row[type_id]:
                row[type_id] = seq
                advanced.append((type_id, seq))
        return advanced

    def set_all_types(
        self, node: int, seq: int, skip: Sequence[int] = ()
    ) -> List[int]:
        """Advance every column of ``node`` to at least ``seq``.

        Implements the completeness rule: "all stability properties hold
        for the WAN node that originated a message" (Section III-C) — on
        send, the origin's whole row jumps to the new sequence number.
        ``skip`` excludes columns whose truth is established elsewhere
        (a durability-enabled node must not claim ``persisted`` before
        its WAL fsync confirms it).  Returns the type ids that advanced
        (empty, hence falsy, when the whole row was already past
        ``seq``).
        """
        # One range check per call: the columns walked are the table's own.
        self._check(node, 0)
        if seq < 0:
            raise StabilizerError(f"negative sequence number: {seq}")
        row = self._rows[node]
        advanced = []
        for type_id, current in enumerate(row):
            if seq > current and type_id not in skip:
                row[type_id] = seq
                advanced.append(type_id)
        return advanced

    def add_type_column(self) -> int:
        """Register a new stability type at runtime; returns its id.

        New columns start at 0 except the rule above cannot be applied
        retroactively — callers (the Stabilizer facade) re-assert the
        origin's row after adding a column.
        """
        for row in self._rows:
            row.append(0)
        self.type_count += 1
        return self.type_count - 1

    # -- reads ------------------------------------------------------------------
    def get(self, node: int, type_id: int) -> int:
        if not 0 <= node < self.node_count:
            raise StabilizerError(f"node index {node} out of range")
        if not 0 <= type_id < self.type_count:
            raise StabilizerError(f"type id {type_id} out of range")
        return self._rows[node][type_id]

    def row(self, node: int) -> Tuple[int, ...]:
        self._check(node, 0)
        return tuple(self._rows[node])

    @property
    def table(self) -> Sequence[Sequence[int]]:
        """The live table, in the layout compiled predicates read.

        This is intentionally *not* a copy: predicate evaluation happens on
        the hot path and the frontier engine treats it as read-only.
        """
        return self._rows

    def snapshot(self) -> List[List[int]]:
        """A defensive copy (for persistence and debugging)."""
        return [list(row) for row in self._rows]

    def restore(self, rows: Sequence[Sequence[int]]) -> None:
        """Load a snapshot, still enforcing monotonicity from zero state."""
        if len(rows) != self.node_count:
            raise StabilizerError(
                f"snapshot has {len(rows)} rows, table has {self.node_count}"
            )
        for node, row in enumerate(rows):
            if len(row) != self.type_count:
                raise StabilizerError(
                    f"snapshot row {node} has {len(row)} columns, "
                    f"table has {self.type_count}"
                )
            for type_id, seq in enumerate(row):
                self.update(node, type_id, seq)

    def _check(self, node: int, type_id: int) -> None:
        if not 0 <= node < self.node_count:
            raise StabilizerError(f"node index {node} out of range")
        if not 0 <= type_id < self.type_count:
            raise StabilizerError(f"type id {type_id} out of range")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AckTable {self.node_count}x{self.type_count} {self._rows}>"
