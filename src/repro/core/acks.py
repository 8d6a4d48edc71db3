"""The message ACK recorder: a monotonic shared-state table.

Fig. 1's "Message ACK Recorder", inspired by Derecho's shared state table
(SST): one row per WAN node, one column per stability type, each cell the
highest sequence number that node has acknowledged at that level for one
origin's stream.  "Control information is required to be monotonic:
counters or other monotonic data types in which a newer value can
overwrite a prior value" — the table enforces that by ignoring regressions
(a late report carries no new information) and rejecting negative values.

The stabilization engines' hot paths (an arrived frame, an applied report,
a local grant) write the live rows in :attr:`AckTable.table` directly,
with the same checks :meth:`AckTable.update` makes inline; see
:mod:`repro.core.strategy`.
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
        #: The live table, ``table[node][type_id]``, in the layout compiled
        #: predicates read.  Never a copy and never replaced (a new column
        #: is appended to each row in place): the frontier engine reads it
        #: and the engines' write paths keep it monotone.
        self.table: List[List[int]] = [
            [0] * type_count for _ in range(node_count)
        ]

    # -- updates ---------------------------------------------------------------
    def update(self, node: int, type_id: int, seq: int) -> bool:
        """Record "``node`` acknowledged everything up to ``seq``".

        Returns True when the cell advanced; a stale (lower or equal)
        report is ignored and returns False — monotonic overwrite.
        """
        if not 0 <= node < self.node_count:
            raise StabilizerError(f"node index {node} out of range")
        if not 0 <= type_id < self.type_count:
            raise StabilizerError(f"type id {type_id} out of range")
        if seq < 0:
            raise StabilizerError(f"negative sequence number: {seq}")
        row = self.table[node]
        if seq <= row[type_id]:
            return False
        row[type_id] = seq
        return True

    def add_type_column(self) -> int:
        """Register a new stability type at runtime; returns its id.

        New columns start at 0 except the rule above cannot be applied
        retroactively — callers (the Stabilizer facade) re-assert the
        origin's row after adding a column.
        """
        for row in self.table:
            row.append(0)
        self.type_count += 1
        return self.type_count - 1

    # -- reads ------------------------------------------------------------------
    def get(self, node: int, type_id: int) -> int:
        if not 0 <= node < self.node_count:
            raise StabilizerError(f"node index {node} out of range")
        if not 0 <= type_id < self.type_count:
            raise StabilizerError(f"type id {type_id} out of range")
        return self.table[node][type_id]

    def row(self, node: int) -> Tuple[int, ...]:
        if not 0 <= node < self.node_count:
            raise StabilizerError(f"node index {node} out of range")
        return tuple(self.table[node])

    def snapshot(self) -> List[List[int]]:
        """A defensive copy (for persistence and debugging)."""
        return [list(row) for row in self.table]

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AckTable {self.node_count}x{self.type_count} {self.table}>"
