"""The staged WAL against the per-record writer it replaced.

``DurabilityManager.append`` stages an encoded record in memory and the
group commit writes every staged record in one ``AppendLog.append_many``
call, flushes, and fsyncs.  Before, ``append`` wrote each record to the
segment as it arrived (``AppendLog.append`` and a flush per record), kept
a queue only for records a fault left behind, and the group commit was
the fsync alone.  That writer is kept below as a private oracle
(``_PerRecordWal``).

On an unarmed filesystem the two must be indistinguishable wherever a
caller can look: seeded streams of appends from several origins
(``bytes``, ``memoryview`` and ``SyntheticPayload`` records), batch sizes
1, 3 and 8, a segment bound small enough to rotate and ``sim.run(until=…)``
steps in between must give the same ``on_durable`` calls at the same
instants, watermarks, ``stats()`` and ``pending()`` after every step, and
the same bytes in every segment — page cache and durable image — and the
same recovery after a crash at every commit boundary.  Between
boundaries they differ by design: staged records are not in the file.

On an armed filesystem (each of the six fault kinds, several seeds) the
writers differ by design — the injector is consulted once per commit
write instead of once per record — so only the claims are held: nothing
is reported durable unless its frame is in the durable image, and
recovery after a crash never lands below a reported watermark.
"""

import random
import struct
import zlib
from collections import deque

import pytest

from repro.core import DurabilityManager, StabilizerConfig
from repro.errors import DiskFaultError, StabilizerError
from repro.sim import Simulator
from repro.storage.faultio import ALL_FAULTS, MemoryFileSystem
from repro.transport.messages import SyntheticPayload

NODES = ["a", "b", "c"]
GROUPS = {"east": ["a"], "west": ["b", "c"]}
INTERVAL_S = 0.01
SEGMENT_BYTES = 384
SEGMENTS = "wal/wal-"
STEPS = 150


# ---------------------------------------------------------------------------
# The oracle: the per-record writer as it was.
# ---------------------------------------------------------------------------


class _PerRecordWal(DurabilityManager):
    """Every record written to the current segment on ``append``; the
    group commit is the fsync of what was written.  Tracing is left out:
    the trace is not compared."""

    def __init__(self, *args, **kwargs):
        self._queue = deque()
        self._written = []
        self._written_tops = {}
        super().__init__(*args, **kwargs)

    def append(self, origin, seq, payload):
        if self._closed:
            raise StabilizerError("append to a closed DurabilityManager")
        record = (origin, seq, self._encode(origin, seq, payload))
        self.appends += 1
        if self._queue:
            self._queue.append(record)
            self._drain()
        elif not self._write(record):
            self._queue.append(record)
        if len(self._written) >= self.batch:
            self._commit()
        elif self._timer is None:
            self._timer = self.sim.call_later(self.interval_s, self._tick)

    def _write(self, record):
        origin, seq, encoded = record
        try:
            self._current.append(encoded)
        except DiskFaultError:
            self.write_faults += 1
            if self._timer is None and not self._closed:
                self._timer = self.sim.call_later(self.interval_s, self._tick)
            return False
        self._written.append(record)
        if seq > self._written_tops.get(origin, 0):
            self._written_tops[origin] = seq
        return True

    def _drain(self):
        while self._queue and self._write(self._queue[0]):
            self._queue.popleft()

    def _tick(self):
        self._timer = None
        if self._closed:
            return
        self._drain()
        self._commit()
        if (self._written or self._queue) and self._timer is None:
            self._timer = self.sim.call_later(self.interval_s, self._tick)

    def _commit(self):
        if not self._written:
            return
        try:
            self._current.sync()
        except DiskFaultError:
            self._poison()
            return
        self.group_commits += 1
        self._written = []
        tops, self._written_tops = self._written_tops, {}
        self._fold_into_segment(tops)
        for origin, top in tops.items():
            if top > self._watermarks.get(origin, 0):
                self._watermarks[origin] = top
                if self.on_durable is not None:
                    self.on_durable(origin, top)
        if self._current.size_bytes() >= self.segment_bytes:
            self._rotate(poisoned=False)

    def _poison(self):
        self.fsync_failures += 1
        self.poisoned_ranges += 1
        self.poisoned_records += len(self._written)
        self.rewritten_records += len(self._written)
        self._queue.extendleft(reversed(self._written))
        self._written = []
        tops, self._written_tops = self._written_tops, {}
        self._fold_into_segment(tops)
        self._rotate(poisoned=True)
        if self._timer is None and not self._closed:
            self._timer = self.sim.call_later(self.interval_s, self._tick)

    def pending(self):
        return len(self._queue) + len(self._written)

    def flush(self):
        self._drain()
        self._commit()


# ---------------------------------------------------------------------------
# Drivers and the claims.
# ---------------------------------------------------------------------------


def config(batch):
    return StabilizerConfig(
        NODES,
        GROUPS,
        "a",
        durability=True,
        durability_group_commit_batch=batch,
        durability_group_commit_interval_s=INTERVAL_S,
        durability_segment_bytes=SEGMENT_BYTES,
    )


def _frame(origin, seq, payload) -> bytes:
    """The bytes a record must have on disk, built here from the on-disk
    format rather than by the code under test: ``length | crc32 | record``
    over a ``!BHQ`` (raw) or ``!BHQI`` (synthetic) record header."""
    index = NODES.index(origin)
    if isinstance(payload, SyntheticPayload):
        record = struct.pack("!BHQI", 1, index, seq, payload.length)
    else:
        record = struct.pack("!BHQ", 0, index, seq) + bytes(payload)
    head = struct.pack("!I", len(record))
    return head + struct.pack("!I", zlib.crc32(record, zlib.crc32(head))) + record


class _Wal:
    """One manager on its own simulator and filesystem, with everything
    it reported durable (and when) and the frame of every record."""

    def __init__(self, cls, batch, seed, claims=False):
        self.sim = Simulator()
        self.fs = MemoryFileSystem(seed=seed)
        self.batch = batch
        self.claims = claims
        self.bit_rot = False
        self.durable = []
        self.reported = {}
        self.frames = {}
        self.dm = cls(self.sim, config(batch), fs=self.fs, on_durable=self._on_durable)

    def append(self, origin, seq, payload):
        self.frames[origin, seq] = _frame(origin, seq, payload)
        self.dm.append(origin, seq, payload)

    def _on_durable(self, origin, top):
        self.durable.append((origin, top, self.sim.now))
        self.reported[origin] = top
        if self.claims:
            self.check_claims()

    def images(self, durable=True):
        read = self.fs.durable_bytes if durable else self.fs.read_bytes
        return {path: read(path) for path in self.fs.listdir(SEGMENTS)}

    def recovered(self, crash=True):
        """A fresh manager over a copy of the disk, crashed or not."""
        probe = self.fs.clone()
        if crash:
            probe.crash()
        return DurabilityManager(Simulator(), config(self.batch), fs=probe)

    def check_claims(self):
        """Every reported record's frame is in a durable image, and a
        crash recovers at least every reported watermark.

        A disk that flips bits on write (``bit_rot``) defeats any log: a
        frame it corrupted is in no image at all, and recovery stops at
        the corruption.  There only the records the disk kept are held to
        the first claim, and the second to what recovery finds without a
        crash."""
        durable = self.images().values()
        volatile = None if not self.bit_rot else self.images(durable=False).values()
        for (origin, seq), frame in self.frames.items():
            if seq > self.reported.get(origin, 0):
                continue
            if any(frame in image for image in durable):
                continue
            assert volatile is not None and not any(
                frame in image for image in volatile
            ), f"{origin}:{seq} reported durable, frame not on disk"
        recovered = self.recovered()
        uncrashed = self.recovered(crash=False) if self.bit_rot else None
        for origin, top in self.reported.items():
            floor = top if uncrashed is None else min(top, uncrashed.watermark(origin))
            assert recovered.watermark(origin) >= floor, (origin, top)

    def observed(self):
        dm = self.dm
        return (list(self.durable), dm.watermarks(), dm.stats(), dm.pending())


def _payload(rng):
    size = rng.randrange(0, 96)
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randbytes(size)
    if kind == 1:
        return memoryview(rng.randbytes(size + 8))[4 : 4 + size]
    return SyntheticPayload(size + 1)


def _steps(seed, steps=STEPS):
    """A seeded stream: appends from three origins, each origin's
    sequence rising by one, and ``sim.run(until=…)`` steps between."""
    rng = random.Random(seed)
    seqs = dict.fromkeys(NODES, 0)
    for _step in range(steps):
        if rng.random() < 0.75:
            origin = rng.choice(NODES)
            seqs[origin] += 1
            yield "append", (origin, seqs[origin], _payload(rng))
        else:
            yield "run", rng.choice((0.001, 0.004, INTERVAL_S, 0.025))


def _apply(wal, step):
    kind, arg = step
    if kind == "append":
        wal.append(*arg)
    else:
        wal.sim.run(until=wal.sim.now + arg)


# ---------------------------------------------------------------------------
# Unarmed: the staged writer is the per-record writer, seen from outside.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("seed", range(4))
def test_staged_commit_matches_the_per_record_writer(seed, batch):
    new = _Wal(DurabilityManager, batch, seed, claims=True)
    old = _Wal(_PerRecordWal, batch, seed)
    boundaries = 0
    for step in _steps(seed):
        _apply(new, step)
        _apply(old, step)
        assert new.observed() == old.observed()
        if new.dm.pending() == 0:
            # A commit boundary: everything appended is written and synced.
            boundaries += 1
            assert new.images(durable=False) == old.images(durable=False)
            assert new.images() == old.images()
            fresh, oracle = new.recovered(), old.recovered()
            assert fresh.watermarks() == oracle.watermarks()
            assert fresh.stats() == oracle.stats()
            assert fresh.recovered_records == oracle.recovered_records
    new.sim.run(until=new.sim.now + 1.0)
    old.sim.run(until=old.sim.now + 1.0)
    assert new.observed() == old.observed()
    assert new.images() == old.images()
    # The stream did exercise what it claims to: commits by size and by
    # timer, several segments, every origin reported.
    assert boundaries > 10
    assert new.dm.segments_rotated >= 2
    assert set(new.reported) == set(NODES)
    assert new.dm.pending() == 0 and new.dm.group_commits > 0


# ---------------------------------------------------------------------------
# Armed: only the claims.
# ---------------------------------------------------------------------------


FAULT_RATE = 0.3


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ALL_FAULTS)
def test_an_armed_disk_never_breaks_the_claims(kind, seed):
    wal = _Wal(DurabilityManager, 3, seed, claims=True)
    wal.bit_rot = kind == "bitflip"
    wal.fs.injector.arm(kind, FAULT_RATE)
    for step in _steps(seed):
        _apply(wal, step)
        wal.check_claims()
    assert wal.fs.injector.injected.get(kind, 0) > 0
    # Healed, everything left staged commits: the manager gives up nothing.
    wal.fs.injector.clear()
    wal.sim.run(until=wal.sim.now + 1.0)
    wal.check_claims()
    assert wal.dm.pending() == 0
    tops = {}
    for origin, seq in wal.frames:
        tops[origin] = max(tops.get(origin, 0), seq)
    assert wal.dm.watermarks() == tops == wal.reported
