"""Snapshot/restore of Stabilizer state (Section III-E).

"The Derecho object store can also persist the stability frontier
information, which can be used for Stabilizer recovery."  We persist the
ACK tables, frontier values, the outgoing sequence counter and the send
buffer's undelivered tail as JSON; a restarted node loads the snapshot
after the integrated system's own recovery logic runs (the paper's
view-change analogue is the caller rebuilding the node and then invoking
:func:`restore_state`), then calls
:meth:`~repro.core.stabilizer.Stabilizer.request_catchup` so peers replay
what it missed while down.

Two formats are written and read.  Version 3 is one node's state: tables,
frontiers and monitor high-water marks, the send buffer and receive
watermarks, and the durability section (the WAL watermarks the snapshot
was compacted against); :func:`save_snapshot` writes it crash-atomically.
Version 5 is the sharded envelope: a
:class:`~repro.core.sharding.ShardedStabilizer` snapshots as one inner
version-3 snapshot per owned shard (each carrying that shard's
watermarks, tables, and buffer tail) plus the shard layout with its
membership *epoch* — it refuses to restore into a node whose
owned-shard set differs — and the live-rebalance state: the set of
shards frozen for an in-flight handoff, and any transferred state blobs
parked in the :class:`~repro.core.rebalance.HandoffManager`, so a node
crashing between transfer and cutover restarts without losing the
handoff.  Any other version is refused: nothing has written versions
1/2 since the durability layer or the epoch-less version-4 envelope
since live rebalancing.

The strategy redesign added an optional ``strategy`` section (engine name
plus engine-private state) to the version-3 envelope without a version
bump: snapshots lacking it are ACK-table snapshots by construction, and
restores refuse a cross-engine mismatch.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Union

from repro.core.stabilizer import Stabilizer
from repro.errors import StabilizerError, StorageError
from repro.storage.faultio import OS_FS
from repro.transport.messages import SyntheticPayload

SNAPSHOT_VERSION = 3
SHARDED_SNAPSHOT_VERSION = 5
_SUPPORTED_VERSIONS = (3,)
_SUPPORTED_SHARDED_VERSIONS = (5,)


def _encode_payload(payload):
    if isinstance(payload, SyntheticPayload):
        return {"synthetic": payload.length}
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return {"hex": bytes(payload).hex()}
    raise StabilizerError(
        f"cannot snapshot payload of type {type(payload).__name__}"
    )


def _decode_payload(data):
    if "synthetic" in data:
        return SyntheticPayload(data["synthetic"])
    return bytes.fromhex(data["hex"])


def snapshot_state(stabilizer) -> dict:
    """Capture everything a restarted node needs to resume its role.

    Accepts a plain :class:`Stabilizer` (version-3 snapshot) or a
    :class:`~repro.core.sharding.ShardedStabilizer` (version-5 envelope:
    one inner snapshot per owned shard plus the shard layout).
    """
    from repro.core.sharding import ShardedStabilizer

    if isinstance(stabilizer, ShardedStabilizer):
        return {
            "version": SHARDED_SNAPSHOT_VERSION,
            "config": stabilizer.config.to_dict(),
            "shard_map": stabilizer.shard_map.to_dict(),
            "shards": {
                str(shard): snapshot_state(inner)
                for shard, inner in stabilizer.shards.items()
            },
            # v5: live-rebalance state.  Pending shards are implicit —
            # they are exactly the owned shards absent from "shards".
            "frozen": list(stabilizer.frozen_shards()),
            "handoffs": stabilizer.handoff.incoming_state(),
        }
    buffer = stabilizer.dataplane.buffer
    return {
        "version": SNAPSHOT_VERSION,
        "config": stabilizer.config.to_dict(),
        "next_seq": stabilizer.dataplane.next_seq,
        "tables": {
            origin: table.snapshot()
            for origin, table in stabilizer.tables.items()
        },
        "frontiers": stabilizer.engine.snapshot_frontiers(),
        "monitor_high": stabilizer.engine.snapshot_monitor_high(),
        # The undelivered tail of this node's own stream.  "When a message
        # has been delivered everywhere, the buffer space is reclaimed" —
        # so what is still here is exactly what some peer may be missing.
        "buffer": {
            "reclaimed_up_to": buffer.reclaimed_up_to,
            "entries": [
                {
                    "seq": entry.seq,
                    "size": entry.size,
                    "payload": _encode_payload(entry.payload),
                    "chunk_meta": list(entry.chunk_meta),
                }
                for entry in buffer.entries_above(buffer.reclaimed_up_to)
            ],
        },
        # v3: the fsync-confirmed WAL watermarks at snapshot time.  A
        # restore may use these to *check* honesty, never to advance it —
        # only the recovered WAL itself can justify a persisted claim.
        "durability": (
            {"watermarks": stabilizer.durability.watermarks()}
            if stabilizer.durability is not None
            else None
        ),
        # Strategy-redesign addition (no version bump: the key is simply
        # absent from older snapshots, which were all ACK-table): which
        # stabilization engine filled these tables, plus its private
        # protocol state.  Restores refuse a cross-engine mismatch —
        # table *contents* would carry over, but the engines' control
        # protocols cannot resume each other's streams.
        "strategy": {
            "name": stabilizer.strategy.name,
            "state": stabilizer.strategy.snapshot(),
        },
    }


def restore_state(stabilizer, snapshot: dict) -> None:
    """Load ``snapshot`` into a freshly constructed node.

    A version-5 (sharded) snapshot restores into a
    :class:`~repro.core.sharding.ShardedStabilizer` with the same owned
    shards: each per-shard inner snapshot restores into the matching
    shard stack.

    The node must have been built with the same deployment config (node
    list and groups); its sequence counter resumes after the last persisted
    message so the stream never reuses a number.  Restores the ACK tables,
    the frontier values (rebuilding the engine's reverse dependency index
    and releasing any waiter the restored frontier already covers), the
    per-origin receive watermarks, and the send buffer's undelivered
    tail, ready for
    :meth:`~repro.core.stabilizer.Stabilizer.request_catchup` replay.
    """
    if snapshot.get("version") in _SUPPORTED_SHARDED_VERSIONS:
        _restore_sharded(stabilizer, snapshot)
        return
    if snapshot.get("version") not in _SUPPORTED_VERSIONS:
        raise StabilizerError(
            f"unsupported snapshot version {snapshot.get('version')!r}"
        )
    config = snapshot["config"]
    if config["node_names"] != stabilizer.config.node_names:
        raise StabilizerError("snapshot is for a different deployment")
    if config["local"] != stabilizer.config.local:
        raise StabilizerError(
            f"snapshot belongs to node {config['local']!r}, "
            f"not {stabilizer.config.local!r}"
        )
    # Engine check: snapshots made before the strategy redesign carry no
    # strategy key and are all ACK-table snapshots.
    snapshot_engine = (snapshot.get("strategy") or {}).get("name", "acktable")
    if snapshot_engine != stabilizer.strategy.name:
        raise StabilizerError(
            f"snapshot was taken under the {snapshot_engine!r} "
            f"stabilization strategy but this node runs "
            f"{stabilizer.strategy.name!r} — engines cannot restore "
            f"each other's control state"
        )
    # Durability honesty clamp: a snapshot may not reinstate a persisted
    # claim the recovered WAL cannot back.  (Snapshots are taken with the
    # persisted column equal to the fsync watermark, and fsynced bytes
    # survive a crash, so a violation here means corrupted state or a
    # snapshot from a different disk — refuse it rather than lie.)
    if stabilizer.durability is not None:
        persisted = stabilizer.type_id("persisted")
        local_index = stabilizer.local_index
        for origin, rows in snapshot["tables"].items():
            claimed = rows[local_index][persisted]
            proven = stabilizer.durability.watermark(origin)
            if claimed > proven:
                raise StabilizerError(
                    f"snapshot claims {stabilizer.name!r} persisted "
                    f"{origin!r}:{claimed} but the recovered WAL proves "
                    f"only {proven} — refusing a dishonest restore"
                )
    for origin, rows in snapshot["tables"].items():
        table = stabilizer.tables.get(origin)
        if table is None:
            raise StabilizerError(f"snapshot has unknown origin {origin!r}")
        table.restore(rows)
    # The restored received column may have raised its floor unscanned:
    # the next rising cell rescans it (Stabilizer._rescan_received_floor).
    stabilizer._received_floor = math.inf
    stabilizer.engine.restore_frontiers(snapshot["frontiers"])
    stabilizer.engine.restore_monitor_high(snapshot["monitor_high"])
    stabilizer.dataplane.restore_next_seq(int(snapshot["next_seq"]))
    # Receive watermarks: what this node acknowledged as received for each
    # remote stream is in its own column of the restored tables; the data
    # plane resumes each stream there instead of mid-stream-join logic.
    received = stabilizer.type_id("received")
    local_index = stabilizer.local_index
    for origin in stabilizer.config.node_names:
        if origin == stabilizer.name:
            continue
        stabilizer.dataplane.restore_highest_received(
            origin, stabilizer.tables[origin].get(local_index, received)
        )
    buffer_state = snapshot["buffer"]
    buffer = stabilizer.dataplane.buffer
    buffer._reclaimed_up_to = max(
        buffer._reclaimed_up_to, int(buffer_state["reclaimed_up_to"])
    )
    for entry in buffer_state["entries"]:
        payload = _decode_payload(entry["payload"])
        buffer.add(entry["seq"], entry["size"], payload, tuple(entry["chunk_meta"]))
    strategy_state = (snapshot.get("strategy") or {}).get("state")
    if strategy_state:
        stabilizer.strategy.restore(strategy_state)
    # Restored frontiers are what the snapshot's node had computed; the
    # tables are what this node now holds.  The two differ for a rebalance
    # joiner (another owner's frontiers, under that owner's predicate
    # scope) and after a masked predicate was snapshotted.  Nothing else
    # would ever reconcile a stream that is already fully delivered — no
    # further report arrives to trigger an evaluation — so every observed
    # slot takes one pass over the restored tables now (unobserved slots
    # are read off them anyway).  Last, because monitors and waiters may
    # fire: they must find the node fully restored.
    for origin in stabilizer.tables:
        stabilizer.engine.reevaluate(origin)


def _restore_sharded(stabilizer, snapshot: dict) -> None:
    from repro.core.sharding import ShardedStabilizer

    if not isinstance(stabilizer, ShardedStabilizer):
        raise StabilizerError(
            "version-5 snapshots are sharded; restore into a "
            "ShardedStabilizer built from the same deployment config"
        )
    config = snapshot["config"]
    if config["node_names"] != stabilizer.config.node_names:
        raise StabilizerError("snapshot is for a different deployment")
    if config["local"] != stabilizer.config.local:
        raise StabilizerError(
            f"snapshot belongs to node {config['local']!r}, "
            f"not {stabilizer.config.local!r}"
        )
    found = snapshot["shard_map"]
    expected = stabilizer.shard_map.to_dict()
    if found != expected:
        raise StabilizerError(
            "snapshot's shard layout differs from this deployment's — "
            "per-shard watermarks cannot be mapped across layouts "
            f"(expected shard_count={expected['shard_count']} "
            f"replication={expected['replication']} "
            f"epoch={expected['epoch']} over {len(expected['node_names'])} "
            f"nodes; snapshot has shard_count={found.get('shard_count')} "
            f"replication={found.get('replication')} "
            f"epoch={found.get('epoch')} over "
            f"{len(found.get('node_names', []))} nodes)"
        )
    snapshotted = {int(shard) for shard in snapshot["shards"]}
    built = set(stabilizer.shards)
    if snapshotted != built:
        raise StabilizerError(
            f"snapshot covers shards {sorted(snapshotted)} but node "
            f"{stabilizer.name!r} runs stacks for {sorted(built)}"
        )
    for shard, inner_snapshot in snapshot["shards"].items():
        restore_state(stabilizer.shards[int(shard)], inner_snapshot)
    # Reinstate the live-rebalance state — re-freeze shards that were
    # mid-handoff and re-park transferred blobs awaiting cutover.
    for shard in snapshot["frozen"]:
        if int(shard) in stabilizer.shards:
            stabilizer.freeze_shard(int(shard))
    stabilizer.handoff.restore_incoming(snapshot["handoffs"])


def save_snapshot(
    stabilizer: Stabilizer, path: Union[str, Path], fs=None
) -> None:
    """Write the snapshot crash-atomically: temp file in the same
    directory, fsync, then an atomic rename over the target.  A crash at
    any instant leaves either the old snapshot or the new one — never a
    torn half of each.  ``fs`` selects the filesystem (default: the real
    OS; chaos runs pass the node's fault-injecting filesystem, so a
    checkpoint can itself hit ENOSPC or a failed fsync)."""
    filesystem = fs if fs is not None else OS_FS
    data = json.dumps(snapshot_state(stabilizer)).encode()
    tmp = str(path) + ".tmp"
    fh = filesystem.open(tmp, "wb")
    try:
        fh.write(data)
        filesystem.fsync(fh)
    finally:
        fh.close()
    filesystem.replace(tmp, str(path))


def load_snapshot(path: Union[str, Path], fs=None) -> dict:
    filesystem = fs if fs is not None else OS_FS
    try:
        return json.loads(filesystem.read_bytes(str(path)))
    except (OSError, StorageError, ValueError) as exc:
        raise StabilizerError(f"cannot load snapshot {path}: {exc}") from exc
