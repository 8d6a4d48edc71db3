"""Honest ``.persisted`` stability: a per-node WAL with group commit.

The paper's DSL distinguishes ``.received`` from ``.persisted``
stability, and applications such as the Dropbox-style backup service ack
users only once data is durable.  This module makes the ``persisted``
ACK column a *true statement about bytes on disk*: every delivered
message (the node's own sends and every remote stream) is appended to a
write-ahead log, fsyncs are batched by a group-commit timer/size, and the
``persisted`` stability report for a sequence number is emitted **only
after the fsync covering it returns successfully**.

Layout: numbered segment files (``wal-000001.log`` …) of
:class:`~repro.storage.log.AppendLog` frames, each record encoding
``(origin, seq, payload)``; a ``wal.meta`` manifest (written atomically:
temp file, fsync, rename) carries the *base watermarks* absorbed by
snapshot checkpoints so compacted segments stay accounted for.

**Fsync-failure policy (no "fsyncgate").**  A modern kernel drops dirty
pages when fsync fails — retrying the same file returns success without
the data ever reaching the disk.  So a failed group commit *poisons* the
written-but-unsynced range: the current segment is sealed (its already
fsynced prefix stays trusted, its tail is never trusted again), the
poisoned records are re-queued and **rewritten to a fresh segment**, and
the durable watermark does not move until a *new* fsync covering a *new*
copy of the bytes returns.  Nothing is ever reported persisted on the
strength of a retried fsync.

Recovery scans the manifest and surviving segments (permissive mode —
a poisoned tail must not mask earlier valid records), then rebuilds each
origin's durable watermark as the largest *contiguous* prefix present,
so a salvage hole can never cause an over-claim.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DiskFaultError, StabilizerError
from repro.obs.tracer import NULL_TRACER
from repro.storage.faultio import MemoryFileSystem
from repro.storage.log import AppendLog
from repro.transport.messages import SyntheticPayload

# One WAL record: kind (0 = raw bytes, 1 = synthetic), origin index, seq;
# a synthetic record carries the modelled length where the bytes would be.
_RECORD = struct.Struct("!BHQ")
_SYN_RECORD = struct.Struct("!BHQI")

#: ``on_durable(origin_name, seq)`` — every message of ``origin`` up to
#: ``seq`` is now on stable storage at this node.
DurableFn = Callable[[str, int], None]

#: A record on its way to disk: ``(origin, seq, encoded)``.
_PendingRecord = Tuple[str, int, bytes]


class DurabilityManager:
    """See module docstring.  One instance per Stabilizer node."""

    SEGMENT_PREFIX = "wal-"
    SEGMENT_SUFFIX = ".log"
    META_NAME = "wal.meta"

    def __init__(
        self,
        sim,
        config,
        fs=None,
        on_durable: Optional[DurableFn] = None,
        tracer=None,
    ):
        self.sim = sim
        self.config = config
        self.fs = fs if fs is not None else MemoryFileSystem(seed=config.local_index)
        self.on_durable = on_durable
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_node = config.local
        self.dir = config.durability_dir.rstrip("/")
        self.interval_s = config.durability_group_commit_interval_s
        self.batch = config.durability_group_commit_batch
        self.segment_bytes = config.durability_segment_bytes
        self._node_names = list(config.node_names)
        self._node_index = {name: i for i, name in enumerate(self._node_names)}

        # Durable (fsync-confirmed) watermark per origin stream.
        self._watermarks: Dict[str, int] = {}
        # Records not yet written to the current segment: empty unless a
        # write fault or a poisoned fsync is waiting for its retry.
        self._queue: deque = deque()
        # Records written to the current segment, awaiting group commit,
        # and their highest sequence per origin in first-written order (the
        # order the commit reports them durable in).
        self._written: List[_PendingRecord] = []
        self._written_tops: Dict[str, int] = {}
        self._sealed: List[dict] = []  # {"name", "max_seqs", "poisoned"}
        self._segment_index = 0
        self._current: Optional[AppendLog] = None
        self._current_name: Optional[str] = None
        self._current_max: Dict[str, int] = {}
        self._timer = None
        self._closed = False

        # Counters (surfaced through Stabilizer.stats()).
        self.appends = 0
        self.group_commits = 0
        self.fsync_failures = 0
        self.write_faults = 0
        self.poisoned_ranges = 0
        self.poisoned_records = 0
        self.rewritten_records = 0
        self.segments_rotated = 0
        self.segments_compacted = 0
        self.checkpoints = 0
        self.salvaged_segments = 0
        self.recovered_records = 0

        self.fs.makedirs(self.dir)
        self._recover()
        self._open_segment()

    # ------------------------------------------------------------------ paths
    def _segment_path(self, index: int) -> str:
        return f"{self.dir}/{self.SEGMENT_PREFIX}{index:06d}{self.SEGMENT_SUFFIX}"

    def _meta_path(self) -> str:
        return f"{self.dir}/{self.META_NAME}"

    # ------------------------------------------------------------------ appends
    def append(self, origin: str, seq: int, payload) -> None:
        """Queue one delivered message for the write-ahead log.

        Never raises on disk faults: a write failure leaves the record
        queued and the group-commit timer retries; the caller's only
        contract is that ``persisted`` will not be reported until an
        fsync covering this record succeeds.
        """
        if self._closed:
            raise StabilizerError("append to a closed DurabilityManager")
        record = (origin, seq, self._encode(origin, seq, payload))
        self.appends += 1
        if self._queue:
            # Behind whatever a fault left waiting: the log keeps order.
            self._queue.append(record)
            self._drain()
        elif not self._write(record):
            self._queue.append(record)
        if len(self._written) >= self.batch:
            self._commit()
        elif self._timer is None:
            # This record is written or queued: something awaits a commit.
            self._timer = self.sim.call_later(self.interval_s, self._tick)

    def _encode(self, origin: str, seq: int, payload) -> bytes:
        index = self._node_index.get(origin)
        if index is None:
            raise StabilizerError(f"unknown origin {origin!r}")
        if type(payload) is bytes:
            return _RECORD.pack(0, index, seq) + payload
        if isinstance(payload, SyntheticPayload):
            # Modelled content: the record is honest about its framing and
            # fsync path without materializing the random bytes.
            return _SYN_RECORD.pack(1, index, seq, payload.length)
        if isinstance(payload, (bytes, bytearray, memoryview)):
            return _RECORD.pack(0, index, seq) + bytes(payload)
        raise StabilizerError(
            f"cannot log payload of type {type(payload).__name__}"
        )

    def _decode(self, record: bytes) -> Optional[Tuple[str, int]]:
        if len(record) < _RECORD.size:
            return None
        kind, index, seq = _RECORD.unpack_from(record)
        if kind not in (0, 1) or index >= len(self._node_names):
            return None
        return self._node_names[index], seq

    def _write(self, record: _PendingRecord) -> bool:
        """Write one record to the current segment; False on a disk fault
        (the caller keeps the record queued and the timer retries)."""
        origin, seq, encoded = record
        try:
            self._current.append(encoded)
        except DiskFaultError:
            # The log healed any torn tail.  Never block the delivery path.
            self.write_faults += 1
            if self._timer is None and not self._closed:
                self._timer = self.sim.call_later(self.interval_s, self._tick)
            return False
        self._written.append(record)
        if seq > self._written_tops.get(origin, 0):
            self._written_tops[origin] = seq
        if self.tracer.enabled and self.tracer.sampled(origin, seq):
            self.tracer.emit(self._trace_node, "wal.append", origin=origin, seq=seq)
        return True

    def _drain(self) -> None:
        """Move queued records into the current segment (best effort)."""
        while self._queue and self._write(self._queue[0]):
            self._queue.popleft()

    def _tick(self) -> None:
        self._timer = None
        if self._closed:
            return
        self._drain()
        self._commit()
        if (self._written or self._queue) and self._timer is None:
            self._timer = self.sim.call_later(self.interval_s, self._tick)

    # ------------------------------------------------------------------ commit
    def _commit(self) -> None:
        """One group commit: fsync the current segment, then — and only
        then — report the covered sequences durable."""
        if not self._written:
            return
        try:
            self._current.sync()
        except DiskFaultError:
            self._poison()
            return
        self.group_commits += 1
        records = len(self._written)
        self._written = []
        tracing = self.tracer.enabled
        for origin, top in self._take_written_tops().items():
            if top > self._watermarks.get(origin, 0):
                self._watermarks[origin] = top
                if tracing:
                    self.tracer.emit(
                        self._trace_node,
                        "wal.fsync",
                        origin=origin,
                        seq=top,
                        records=records,
                    )
                if self.on_durable is not None:
                    self.on_durable(origin, top)
        if self._current.size_bytes() >= self.segment_bytes:
            self._rotate(poisoned=False)

    def _take_written_tops(self) -> Dict[str, int]:
        """The written-but-uncommitted tops, folded into the segment's own
        maxima (a sealed segment answers for everything written to it,
        committed or poisoned) and reset."""
        tops, self._written_tops = self._written_tops, {}
        for origin, top in tops.items():
            if top > self._current_max.get(origin, 0):
                self._current_max[origin] = top
        return tops

    def _poison(self) -> None:
        """A group commit's fsync failed: the kernel may have dropped the
        dirty pages, so the unsynced range of this segment can never be
        trusted again.  Seal it, re-queue the records for a fresh
        segment, and leave the watermark exactly where it was."""
        self.fsync_failures += 1
        self.poisoned_ranges += 1
        self.poisoned_records += len(self._written)
        self.rewritten_records += len(self._written)
        if self.tracer.enabled:
            self.tracer.emit(
                self._trace_node, "wal.fsync_fail", records=len(self._written)
            )
        self._queue.extendleft(reversed(self._written))
        self._written = []
        self._take_written_tops()
        self._rotate(poisoned=True)
        if self._timer is None and not self._closed:
            self._timer = self.sim.call_later(self.interval_s, self._tick)

    def _rotate(self, poisoned: bool) -> None:
        self._seal_current(poisoned)
        self._open_segment()
        self.segments_rotated += 1

    def _seal_current(self, poisoned: bool) -> None:
        if self._current is None:
            return
        try:
            self._current.close(sync=False)
        except DiskFaultError:  # pragma: no cover - close(sync=False) is quiet
            pass
        self._sealed.append(
            {
                "name": self._current_name,
                "max_seqs": dict(self._current_max),
                "poisoned": poisoned,
            }
        )
        self._current = None
        self._current_name = None
        self._current_max = {}

    def _open_segment(self) -> None:
        self._segment_index += 1
        self._current_name = self._segment_path(self._segment_index)
        self._current = AppendLog(
            self._current_name, fs=self.fs, recovery="permissive"
        )
        self._current_max = {}

    # ------------------------------------------------------------------ reads
    def watermark(self, origin: str) -> int:
        """Highest sequence of ``origin`` whose bytes a successful fsync
        has confirmed on stable storage at this node."""
        return self._watermarks.get(origin, 0)

    def watermarks(self) -> Dict[str, int]:
        return dict(self._watermarks)

    def pending(self) -> int:
        """Records delivered but not yet covered by a successful fsync."""
        return len(self._queue) + len(self._written)

    def flush(self) -> None:
        """Drain and group-commit now (graceful paths and tests)."""
        self._drain()
        self._commit()

    def stats(self) -> Dict[str, int]:
        return {
            "durability.wal_appends": self.appends,
            "durability.wal_group_commits": self.group_commits,
            "durability.wal_fsync_failures": self.fsync_failures,
            "durability.wal_write_faults": self.write_faults,
            "durability.wal_poisoned_ranges": self.poisoned_ranges,
            "durability.wal_poisoned_records": self.poisoned_records,
            "durability.wal_rewritten_records": self.rewritten_records,
            "durability.wal_segments_rotated": self.segments_rotated,
            "durability.wal_segments_compacted": self.segments_compacted,
            "durability.wal_checkpoints": self.checkpoints,
            "durability.wal_pending": self.pending(),
        }

    # ------------------------------------------------------------------ teardown
    def close(self, sync: bool = True) -> None:
        """Graceful shutdown: final group commit, then close.

        A final disk fault is absorbed (the unsynced tail simply was
        never reported persisted — honesty is preserved by silence).
        """
        if self._closed:
            return
        self._cancel_timer()
        if sync:
            try:
                self.flush()
            except DiskFaultError:  # pragma: no cover - flush absorbs faults
                pass
        if self._current is not None:
            try:
                self._current.close(sync=False)
            except DiskFaultError:  # pragma: no cover
                pass
            self._current = None
        self._closed = True

    def crash(self) -> None:
        """Abandon everything un-fsynced — the node is crashing and gets
        no parting flush.  (The filesystem's own ``crash`` decides which
        bytes survive.)"""
        self._cancel_timer()
        if self._current is not None:
            self._current.close(sync=False)
            self._current = None
        self._closed = True

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------ checkpoint
    def checkpoint(self, cover: Optional[Dict[str, int]] = None) -> int:
        """Compact the WAL against a snapshot (snapshot v3).

        ``cover`` maps origin -> highest sequence the just-saved snapshot
        absorbs (defaults to the current durable watermarks; values are
        clamped to them — the manifest must never claim beyond fsync).
        Sealed segments whose every record is covered are deleted *after*
        the manifest naming the survivors is atomically on disk.
        Returns the number of segments deleted.
        """
        base = dict(self._watermarks)
        if cover is not None:
            base = {
                origin: min(seq, self._watermarks.get(origin, 0))
                for origin, seq in cover.items()
            }
        removable = [
            seg
            for seg in self._sealed
            if all(
                top <= base.get(origin, 0)
                for origin, top in seg["max_seqs"].items()
            )
        ]
        survivors = [seg for seg in self._sealed if seg not in removable]
        meta = {
            "version": 1,
            "base": base,
            "segments": [seg["name"] for seg in survivors]
            + ([self._current_name] if self._current_name else []),
        }
        self._write_meta(meta)  # raises on fault: nothing deleted yet
        for seg in removable:
            if self.fs.exists(seg["name"]):
                self.fs.remove(seg["name"])
        self._sealed = survivors
        self.segments_compacted += len(removable)
        self.checkpoints += 1
        return len(removable)

    def _write_meta(self, meta: dict) -> None:
        """Atomic manifest write: temp file, fsync, rename."""
        tmp = self._meta_path() + ".tmp"
        fh = self.fs.open(tmp, "wb")
        try:
            fh.write(json.dumps(meta).encode())
            self.fs.fsync(fh)
        finally:
            fh.close()
        self.fs.replace(tmp, self._meta_path())

    # ------------------------------------------------------------------ recovery
    def _recover(self) -> None:
        """Rebuild durable watermarks from the manifest + surviving
        segments; runs on construction, so a restarted node knows exactly
        what it may honestly claim before it says anything."""
        base: Dict[str, int] = {}
        if self.fs.exists(self._meta_path()):
            try:
                meta = json.loads(self.fs.read_bytes(self._meta_path()))
                base = {
                    origin: int(seq)
                    for origin, seq in meta.get("base", {}).items()
                    if origin in self._node_index
                }
            except (ValueError, KeyError):
                # The manifest is written atomically, so corruption here
                # means someone else scribbled on it; fall back to a full
                # segment scan (watermarks may under-claim, never over).
                base = {}
        seen: Dict[str, set] = {}
        top_index = 0
        for path in self.fs.listdir(f"{self.dir}/{self.SEGMENT_PREFIX}"):
            if not path.endswith(self.SEGMENT_SUFFIX):
                continue
            try:
                index = int(
                    path[len(f"{self.dir}/{self.SEGMENT_PREFIX}") : -len(
                        self.SEGMENT_SUFFIX
                    )]
                )
            except ValueError:
                continue
            top_index = max(top_index, index)
            log = AppendLog(path, fs=self.fs, recovery="permissive")
            if log.corrupt_records_skipped or log.truncated_bytes:
                self.salvaged_segments += 1
            max_seqs: Dict[str, int] = {}
            for record in log.records():
                decoded = self._decode(record.payload)
                if decoded is None:
                    continue
                origin, seq = decoded
                seen.setdefault(origin, set()).add(seq)
                max_seqs[origin] = max(max_seqs.get(origin, 0), seq)
                self.recovered_records += 1
            log.close(sync=False)
            self._sealed.append(
                {"name": path, "max_seqs": max_seqs, "poisoned": False}
            )
        self._segment_index = top_index
        for origin in self._node_names:
            mark = base.get(origin, 0)
            present = seen.get(origin, ())
            while mark + 1 in present:
                mark += 1
            if mark > 0:
                self._watermarks[origin] = mark
        # One summary event, never per-record ``wal.append`` re-emission:
        # replayed records were already traced by the prior incarnation.
        if self.tracer.enabled and (self.recovered_records or self._watermarks):
            self.tracer.emit(
                self._trace_node,
                "wal.recover",
                records=self.recovered_records,
                watermarks=dict(self._watermarks),
            )
