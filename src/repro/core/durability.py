"""Honest ``.persisted`` stability: a per-node WAL with group commit.

The paper's DSL distinguishes ``.received`` from ``.persisted``
stability, and applications such as the Dropbox-style backup service ack
users only once data is durable.  This module makes the ``persisted``
ACK column a *true statement about bytes on disk*: every delivered
message (the node's own sends and every remote stream) is staged for a
write-ahead log, a group commit (fired by size, or by a timer armed at
the first staged record) writes the staged records in one write and
fsyncs them, and the ``persisted`` stability report for a sequence
number is emitted **only after the fsync covering it returns
successfully** — one report per commit, naming every origin it covers.

Layout: numbered segment files (``wal-000001.log`` …) of
:class:`~repro.storage.log.AppendLog` frames, **one frame per group
commit**: the frame's payload is the commit's records back to back, each
a ``(kind, origin index, seq, length)`` header followed by ``length``
payload bytes (a synthetic record, modelled content, has none).  The
whole batch has one length, one CRC and one ``write``.  A ``wal.meta``
manifest (written atomically: temp file, fsync, rename) carries the
*base watermarks* absorbed by snapshot checkpoints so compacted segments
stay accounted for.

**What a damaged batch loses.**  The batch is the unit of loss.  A torn
batch — a crash, or a torn write, before its fsync returned — loses all
of its records, none of which was ever claimed: recovery truncates it as
a torn tail, and a torn write is healed back to the last whole frame at
once.  Bit rot inside a batch fails the batch's CRC; permissive recovery
skips the whole batch and salvages the ones after it, so the contiguous
watermark stops below the hole — recovery can only under-claim.

**Fsync-failure policy (no "fsyncgate").**  A modern kernel drops dirty
pages when fsync fails — retrying the same file returns success without
the data ever reaching the disk.  So a failed group commit *poisons* the
written-but-unsynced range: the current segment is sealed (its already
fsynced prefix stays trusted, its tail is never trusted again), the
poisoned records stay staged and are **rewritten to a fresh segment**, and
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
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import DiskFaultError, StabilizerError
from repro.obs.tracer import NULL_TRACER
from repro.storage.faultio import MemoryFileSystem
from repro.storage.log import AppendLog
from repro.transport.messages import SyntheticPayload

# One WAL record's header: kind (0 = raw bytes, 1 = synthetic), origin
# index, seq, length.  A raw record's payload follows its header; a
# synthetic record carries only the modelled length, no bytes after it.
_RECORD = struct.Struct("!BHQI")

#: ``on_durable(tops)`` — one group commit's fsync returned: for each
#: ``origin, seq`` of ``tops``, every message of ``origin`` up to ``seq``
#: is now on stable storage at this node (only origins whose durable
#: watermark rose, in first-staged order).
DurableFn = Callable[[Dict[str, int]], None]


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
        # Records awaiting a group commit, in delivery order: each one's
        # header, then its payload (a synthetic record has none), joined
        # into one AppendLog frame by the commit; how many records that
        # is; and their highest sequence per origin in first-staged order
        # (the order the commit reports them durable in).  A refused write
        # or a poisoned fsync leaves all three as they are for the retry.
        self._staged: List[bytes] = []
        self._staged_records = 0
        self._staged_tops: Dict[str, int] = {}
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
        """Stage one delivered message for the write-ahead log.

        No file I/O here: the group commit writes the staged records.
        Never raises on disk faults; the caller's only contract is that
        ``persisted`` will not be reported until an fsync covering this
        record succeeds.
        """
        if self._closed:
            raise StabilizerError("append to a closed DurabilityManager")
        try:
            index = self._node_index[origin]
        except KeyError:
            raise StabilizerError(f"unknown origin {origin!r}") from None
        staged = self._staged
        if type(payload) is bytes:
            staged += (_RECORD.pack(0, index, seq, len(payload)), payload)
        elif isinstance(payload, SyntheticPayload):
            # Modelled content: the record is honest about its framing and
            # fsync path without materializing the random bytes.
            staged.append(_RECORD.pack(1, index, seq, payload.length))
        elif isinstance(payload, (bytes, bytearray, memoryview)):
            payload = bytes(payload)
            staged += (_RECORD.pack(0, index, seq, len(payload)), payload)
        else:
            raise StabilizerError(
                f"cannot log payload of type {type(payload).__name__}"
            )
        self.appends += 1
        self._staged_records += 1
        tops = self._staged_tops
        if seq > tops.get(origin, 0):
            tops[origin] = seq
        if self._staged_records >= self.batch:
            self._commit()
        elif self._timer is None:
            self._arm_timer()

    def _decode(self, batch: bytes) -> Iterator[Tuple[str, int]]:
        """The ``(origin, seq)`` of every record in one committed batch."""
        names = self._node_names
        offset, end = 0, len(batch)
        while offset + _RECORD.size <= end:
            kind, index, seq, length = _RECORD.unpack_from(batch, offset)
            if kind > 1 or index >= len(names):
                return  # not a record this manager wrote
            offset += _RECORD.size
            if kind == 0:
                offset += length
            yield names[index], seq

    def _arm_timer(self) -> None:
        if self._timer is None:
            self._timer = self.sim.call_later(self.interval_s, self._tick)

    def _tick(self) -> None:
        self._timer = None
        if not self._closed:
            self._commit()

    # ------------------------------------------------------------------ commit
    def _commit(self) -> None:
        """One group commit: write every staged record to the current
        segment as one frame, fsync it, then — and only then — report the
        covered sequences durable.  A fault leaves every record staged and
        arms the retry; a commit that succeeds cancels the timer, so the
        next interval counts from the next staged record."""
        staged = self._staged
        if not staged:
            return
        batch = b"".join(staged)
        try:
            self._current.append(batch)
        except DiskFaultError:
            # The log healed any torn tail back to its last whole frame.
            self.write_faults += 1
            self._arm_timer()
            return
        tracing = self.tracer.enabled
        if tracing:
            for origin, seq in self._decode(batch):
                if self.tracer.sampled(origin, seq):
                    self.tracer.emit(
                        self._trace_node, "wal.append", origin=origin, seq=seq
                    )
        try:
            self._current.sync()
        except DiskFaultError:
            self._poison()
            return
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.group_commits += 1
        records = self._staged_records
        tops = self._staged_tops
        self._staged = []
        self._staged_records = 0
        self._staged_tops = {}
        self._fold_into_segment(tops)
        watermarks = self._watermarks
        advanced: Dict[str, int] = {}
        for origin, top in tops.items():
            if top > watermarks.get(origin, 0):
                watermarks[origin] = advanced[origin] = top
                if tracing:
                    self.tracer.emit(
                        self._trace_node,
                        "wal.fsync",
                        origin=origin,
                        seq=top,
                        records=records,
                    )
        if advanced and self.on_durable is not None:
            self.on_durable(advanced)
        if self._current.size_bytes() >= self.segment_bytes:
            self._rotate(poisoned=False)

    def _fold_into_segment(self, tops: Dict[str, int]) -> None:
        """Fold written tops into the segment's own maxima: a sealed
        segment answers for everything written to it, committed or
        poisoned."""
        current_max = self._current_max
        for origin, top in tops.items():
            if top > current_max.get(origin, 0):
                current_max[origin] = top

    def _poison(self) -> None:
        """A group commit's fsync failed: the kernel may have dropped the
        dirty pages, so the unsynced range of this segment can never be
        trusted again.  Seal it, keep the records staged for a fresh
        segment, and leave the watermark exactly where it was."""
        records = self._staged_records
        self.fsync_failures += 1
        self.poisoned_ranges += 1
        self.poisoned_records += records
        self.rewritten_records += records
        if self.tracer.enabled:
            self.tracer.emit(self._trace_node, "wal.fsync_fail", records=records)
        self._fold_into_segment(self._staged_tops)
        self._rotate(poisoned=True)
        self._arm_timer()

    def _rotate(self, poisoned: bool) -> None:
        self._seal_current(poisoned)
        self._open_segment()
        self.segments_rotated += 1

    def _seal_current(self, poisoned: bool) -> None:
        if self._current is None:
            return
        self._current.close(sync=False)
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
        return self._staged_records

    def flush(self) -> None:
        """Group-commit now (graceful paths and tests)."""
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
        never reported persisted — honesty is preserved by silence), and
        the retry it armed is cancelled with the timer.
        """
        if self._closed:
            return
        if sync:
            self._commit()
        # What the final commit could not make durable is abandoned, as
        # in a crash.
        self.crash()

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
                for origin, seq in self._decode(record.payload):
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
