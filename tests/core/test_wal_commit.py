"""The WAL's claims, checked on the disk it writes.

``DurabilityManager.append`` stages a record's header and payload in
memory; a group commit writes every staged record as one ``AppendLog``
frame, flushes and fsyncs it, and only then reports the covered
sequences through ``on_durable``.  These tests read the disk model's
durable image with a parser of their own, built from the on-disk format
rather than by the code under test, over seeded streams of appends from
three origins (``bytes``, ``memoryview`` and ``SyntheticPayload``
records), batch sizes 1, 3 and 8, a segment bound small enough to rotate
and ``sim.run(until=…)`` steps in between, and hold the manager to its
claims:

- per origin, the records in the durable image are the appended ones,
  payloads included, once each and in order, up to the reported
  watermark and no further (on an unarmed disk; an armed one may also
  hold a poisoned copy of a batch, so there every reported record must
  be in the image);
- ``on_durable(tops)`` fires only once the durable image holds each
  origin's records up to its top;
- recovery after a crash, torn or not, at every commit never lands below
  a reported watermark, nor above what was appended;
- records are staged exactly while the group-commit timer is armed: no
  tick fires on an empty batch.
"""

import random
import struct
import zlib

import pytest

from repro.core import DurabilityManager, StabilizerConfig
from repro.sim import Simulator
from repro.storage.faultio import ALL_FAULTS, MemoryFileSystem
from repro.transport.messages import SyntheticPayload

NODES = ["a", "b", "c"]
GROUPS = {"east": ["a"], "west": ["b", "c"]}
INTERVAL_S = 0.01
SEGMENT_BYTES = 384
SEGMENTS = "wal/wal-"
STEPS = 150

# The on-disk format: AppendLog frames of ``length | crc32 | batch``, the
# CRC over the length field and the batch; a batch is records of a
# ``kind, origin index, seq, length`` header, followed by ``length``
# payload bytes for a raw record (kind 0) and by nothing for a synthetic
# one (kind 1).
FRAME = struct.Struct("!II")
RECORD = struct.Struct("!BHQI")


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


def encode(origin, seq, payload) -> bytes:
    """One record as the batch holds it."""
    index = NODES.index(origin)
    if isinstance(payload, SyntheticPayload):
        return RECORD.pack(1, index, seq, payload.length)
    return RECORD.pack(0, index, seq, len(payload)) + bytes(payload)


def parse(image):
    """``origin -> [record, …]`` of one segment image's whole frames, in
    order; parsing stops at the first frame that is cut short or fails
    its CRC (a torn tail, or the zeroes of dropped pages)."""
    found = {}
    offset = 0
    while offset + FRAME.size <= len(image):
        length, crc = FRAME.unpack_from(image, offset)
        start = offset + FRAME.size
        batch = image[start : start + length]
        if len(batch) < length or zlib.crc32(
            batch, zlib.crc32(image[offset : offset + 4])
        ) != crc:
            break
        at = 0
        while at < length:
            kind, index, seq, size = RECORD.unpack_from(batch, at)
            end = at + RECORD.size + (size if kind == 0 else 0)
            found.setdefault(NODES[index], []).append(batch[at:end])
            at = end
        offset = start + length
    return found


class _Wal:
    """One manager on its own simulator and filesystem, with every record
    appended and every watermark it reported."""

    def __init__(self, batch, seed, armed=False):
        self.sim = Simulator()
        self.fs = MemoryFileSystem(seed=seed)
        self.batch = batch
        self.armed = armed
        self.bit_rot = False
        self.appended = {origin: [] for origin in NODES}
        self.reported = {}
        self.commits_checked = 0
        self.dm = DurabilityManager(
            self.sim, config(batch), fs=self.fs, on_durable=self._on_durable
        )

    def append(self, origin, seq, payload):
        self.appended[origin].append(encode(origin, seq, payload))
        self.dm.append(origin, seq, payload)

    def _on_durable(self, tops):
        assert tops, "a commit reported nothing"
        for origin, top in tops.items():
            assert top > self.reported.get(origin, 0), (origin, top)
            self.reported[origin] = top
        # Called from inside the commit: the fsync must already be done.
        self.check_image()

    def images(self, durable=True):
        read = self.fs.durable_bytes if durable else self.fs.read_bytes
        return [read(path) for path in self.fs.listdir(SEGMENTS)]

    def check_image(self):
        """The durable image holds every reported record — on an unarmed
        disk exactly those, once each and in order.

        A disk that flips bits on write (``bit_rot``) defeats any log: a
        batch it corrupted is in no image whole.  There a reported record
        missing from the durable image must be missing from the page
        cache too."""
        if not self.armed:
            found = {}
            for image in self.images():
                for origin, records in parse(image).items():
                    found.setdefault(origin, []).extend(records)
            for origin in NODES:
                top = self.reported.get(origin, 0)
                assert found.get(origin, []) == self.appended[origin][:top], origin
            return
        durable = self.images()
        volatile = self.images(durable=False) if self.bit_rot else None
        for origin, records in self.appended.items():
            for record in records[: self.reported.get(origin, 0)]:
                if any(record in image for image in durable):
                    continue
                assert volatile is not None and not any(
                    record in image for image in volatile
                ), f"{origin}: a reported record is not on disk"

    def recovered(self, crash=True, torn=False, seed=0):
        """A fresh manager over a copy of the disk, crashed or not."""
        probe = self.fs.clone(seed=seed)
        if crash:
            probe.crash(torn=torn)
        return DurabilityManager(Simulator(), config(self.batch), fs=probe)

    def check_recovery(self):
        """After each new commit, crash a copy of the disk (whole and
        torn) and recover: every reported watermark survives, and nothing
        beyond what was appended is claimed."""
        if self.dm.group_commits == self.commits_checked:
            return
        self.commits_checked = self.dm.group_commits
        uncrashed = self.recovered(crash=False) if self.bit_rot else None
        for torn in (False, True):
            recovered = self.recovered(torn=torn, seed=self.commits_checked)
            for origin in NODES:
                top = self.reported.get(origin, 0)
                if uncrashed is not None:
                    top = min(top, uncrashed.watermark(origin))
                mark = recovered.watermark(origin)
                assert top <= mark <= len(self.appended[origin]), (origin, torn)
                if not self.armed:
                    assert mark == top, (origin, torn)

    def check_timer(self):
        """The timer is armed exactly while records wait for a commit."""
        assert (self.dm._timer is not None) == (self.dm.pending() > 0)


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


def _run(wal, seed):
    for kind, arg in _steps(seed):
        if kind == "append":
            wal.append(*arg)
        else:
            wal.sim.run(until=wal.sim.now + arg)
        wal.check_image()
        wal.check_recovery()
        wal.check_timer()


# ---------------------------------------------------------------------------
# Unarmed: the durable image is exactly the reported prefix.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("seed", range(4))
def test_the_durable_image_is_the_reported_prefix(seed, batch):
    wal = _Wal(batch, seed)
    _run(wal, seed)
    wal.sim.run(until=wal.sim.now + 1.0)
    wal.check_image()
    wal.check_recovery()
    wal.check_timer()
    # Everything appended was committed and reported.
    assert wal.dm.pending() == 0 and wal.sim.pending_count() == 0
    assert wal.reported == {o: len(r) for o, r in wal.appended.items()}
    assert wal.dm.watermarks() == wal.reported
    # The stream did exercise what it claims to: commits by size and by
    # timer, several segments, every origin reported.
    assert wal.dm.group_commits > 10
    assert wal.dm.segments_rotated >= 2
    if batch > 1:
        appends = sum(len(r) for r in wal.appended.values())
        assert wal.dm.group_commits > appends // batch  # some by the timer


# ---------------------------------------------------------------------------
# Armed: every reported record is on disk and survives a crash.
# ---------------------------------------------------------------------------


FAULT_RATE = 0.3


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ALL_FAULTS)
def test_an_armed_disk_never_breaks_the_claims(kind, seed):
    wal = _Wal(3, seed, armed=True)
    wal.bit_rot = kind == "bitflip"
    wal.fs.injector.arm(kind, FAULT_RATE)
    _run(wal, seed)
    assert wal.fs.injector.injected.get(kind, 0) > 0
    # Healed, everything left staged commits: the manager gives up nothing.
    wal.fs.injector.clear()
    wal.sim.run(until=wal.sim.now + 1.0)
    wal.check_image()
    wal.check_recovery()
    wal.check_timer()
    assert wal.dm.pending() == 0
    tops = {o: len(r) for o, r in wal.appended.items() if r}
    assert wal.dm.watermarks() == tops == wal.reported
