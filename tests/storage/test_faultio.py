"""Fault-injecting filesystem tests: the disk model the WAL is tested on."""

import random

import pytest

from repro.errors import DiskFaultError, StorageError
from repro.storage.faultio import ALL_FAULTS, FaultInjector, MemoryFileSystem


def fs_with(kind=None, count=1, seed=7):
    fs = MemoryFileSystem(seed=seed)
    if kind is not None:
        fs.injector.arm_once(kind, count)
    return fs


# ---------------------------------------------------------------------------
# FaultInjector.
# ---------------------------------------------------------------------------


def test_injector_is_deterministic_per_seed():
    a, b = FaultInjector(seed=3), FaultInjector(seed=3)
    a.arm("eio_write", 0.5)
    b.arm("eio_write", 0.5)
    assert [a.decide("eio_write") for _ in range(50)] == [
        b.decide("eio_write") for _ in range(50)
    ]
    assert a.injected == b.injected


def test_arm_once_is_consumed_before_rates():
    inj = FaultInjector(seed=0)
    inj.arm_once("enospc", 2)
    assert inj.decide("enospc") and inj.decide("enospc")
    assert not inj.decide("enospc")  # script exhausted, no rate armed
    assert inj.injected == {"enospc": 2}


def test_unknown_kind_and_bad_rate_rejected():
    inj = FaultInjector()
    with pytest.raises(StorageError):
        inj.arm("meteor_strike")
    with pytest.raises(StorageError):
        inj.arm("enospc", rate=1.5)


def test_clear_disarms():
    inj = FaultInjector()
    inj.arm("fsync_fail", 1.0)
    inj.arm_once("eio_write")
    inj.clear("fsync_fail")
    assert not inj.decide("fsync_fail")
    inj.clear()
    assert not inj.decide("eio_write")


# ---------------------------------------------------------------------------
# Write faults.
# ---------------------------------------------------------------------------


def test_clean_write_and_read_back():
    fs = fs_with()
    with fs.open("f", "ab") as fh:
        fh.write(b"hello")
    assert fs.read_bytes("f") == b"hello"
    # Nothing fsynced: a crash loses it all.
    assert fs.durable_bytes("f") == b""


def test_enospc_and_eio_write_nothing():
    for kind in ("enospc", "eio_write"):
        fs = fs_with(kind)
        fh = fs.open("f", "ab")
        with pytest.raises(DiskFaultError) as err:
            fh.write(b"payload")
        assert err.value.kind == kind
        assert err.value.written == 0
        assert fs.read_bytes("f") == b""


def test_torn_write_leaves_a_prefix():
    fs = fs_with("torn_write")
    fh = fs.open("f", "ab")
    with pytest.raises(DiskFaultError) as err:
        fh.write(b"x" * 100)
    assert err.value.kind == "torn_write"
    assert 0 <= err.value.written < 100
    assert fs.read_bytes("f") == b"x" * err.value.written


def test_bitflip_corrupts_silently():
    fs = fs_with("bitflip")
    with fs.open("f", "ab") as fh:
        fh.write(b"\x00" * 64)  # no exception: the caller never knows
    data = fs.read_bytes("f")
    assert len(data) == 64
    assert sum(bin(byte).count("1") for byte in data) == 1  # exactly one bit


# ---------------------------------------------------------------------------
# Fsync and the volatile/durable split.
# ---------------------------------------------------------------------------


def test_fsync_makes_bytes_durable():
    fs = fs_with()
    fh = fs.open("f", "ab")
    fh.write(b"abc")
    assert fs.durable_bytes("f") == b""
    fs.fsync(fh)
    assert fs.durable_bytes("f") == b"abc"
    fh.write(b"def")
    assert fs.unsynced_tail_len("f") == 3
    fs.crash()
    assert fs.read_bytes("f") == b"abc"


def test_failed_fsync_drops_dirty_pages_forever():
    """The fsyncgate contract: after a failed fsync, retrying succeeds
    but the dropped pages never reach the disk."""
    fs = fs_with("fsync_fail")
    fh = fs.open("f", "ab")
    fh.write(b"doomed--")
    with pytest.raises(DiskFaultError) as err:
        fs.fsync(fh)
    assert err.value.kind == "fsync_fail"
    fs.fsync(fh)  # the retry "succeeds"...
    assert fs.durable_bytes("f") == b""  # ...but the bytes are gone
    # Appending more and syncing exposes the hole: the lost range reads
    # as zeroes once durable data exists beyond it.
    fh.write(b"later-ok")
    fs.fsync(fh)
    assert fs.durable_bytes("f") == b"\x00" * 8 + b"later-ok"
    fs.crash()
    assert fs.read_bytes("f") == b"\x00" * 8 + b"later-ok"


def test_rewriting_lost_pages_redeems_them():
    fs = fs_with("fsync_fail")
    fh = fs.open("f", "wb")
    fh.write(b"doomed")
    with pytest.raises(DiskFaultError):
        fs.fsync(fh)
    # Writing the same region again makes it dirty (not lost) — a fresh
    # fsync covers it.
    fh.seek(0)
    fh.write(b"saved!")
    fs.fsync(fh)
    assert fs.durable_bytes("f") == b"saved!"


def test_fsync_torn_keeps_a_prefix_of_dirty_ranges():
    fs = fs_with("fsync_torn", seed=11)
    fh = fs.open("f", "ab")
    fh.write(b"aa")
    fh.write(b"bb")
    fh.write(b"cc")
    with pytest.raises(DiskFaultError) as err:
        fs.fsync(fh)
    assert err.value.kind == "fsync_torn"
    durable = fs.durable_bytes("f")
    # Some prefix of the dirty ranges survived; the rest never landed.
    assert durable in (b"", b"aa", b"aabb", b"aabbcc")


# ---------------------------------------------------------------------------
# Crash semantics.
# ---------------------------------------------------------------------------


def test_torn_crash_keeps_prefix_of_unsynced_tail():
    fs = fs_with(seed=5)
    fh = fs.open("f", "ab")
    fh.write(b"base")
    fs.fsync(fh)
    fh.write(b"tail-bytes")
    fs.crash(torn=True)
    data = fs.read_bytes("f")
    assert data.startswith(b"base")
    assert b"base" + b"tail-bytes"[: len(data) - 4] == data


def test_crash_file_keep_tail_is_exact():
    fs = fs_with()
    fh = fs.open("f", "ab")
    fh.write(b"base")
    fs.fsync(fh)
    fh.write(b"0123456789")
    for keep in range(11):
        probe = fs.clone(seed=keep)
        probe.crash_file("f", keep_tail=keep)
        assert probe.read_bytes("f") == b"base" + b"0123456789"[:keep]
    # The original is untouched by cloning.
    assert fs.read_bytes("f") == b"base0123456789"


def test_replace_is_atomic_and_durable():
    fs = fs_with()
    with fs.open("f.tmp", "wb") as fh:
        fh.write(b"new")
        fs.fsync(fh)
    fs.replace("f.tmp", "f")
    assert not fs.exists("f.tmp")
    fs.crash()
    assert fs.read_bytes("f") == b"new"


def test_open_modes():
    fs = fs_with()
    with pytest.raises(StorageError):
        fs.open("missing", "rb")
    with pytest.raises(StorageError):
        fs.open("f", "a")  # text mode is not modelled
    with fs.open("f", "wb") as fh:
        fh.write(b"x")
    with fs.open("f", "rb") as fh:
        assert fh.read() == b"x"
        with pytest.raises(StorageError):
            fh.write(b"nope")
    closed = fs.open("f", "rb")
    closed.close()
    with pytest.raises(StorageError):
        closed.read()


def test_listdir_prefix_and_remove():
    fs = fs_with()
    for name in ("wal/wal-000001.log", "wal/wal-000002.log", "wal/wal.meta"):
        fs.open(name, "ab").close()
    assert fs.listdir("wal/wal-") == [
        "wal/wal-000001.log",
        "wal/wal-000002.log",
    ]
    fs.remove("wal/wal-000001.log")
    assert fs.listdir("wal/wal-") == ["wal/wal-000002.log"]
    with pytest.raises(StorageError):
        fs.remove("wal/wal-000001.log")


# ---------------------------------------------------------------------------
# Differential: the in-place durable image against a full rebuild.
# ---------------------------------------------------------------------------


class OracleFile:
    """One file of the disk model written the slow way, as the oracle:
    every write and fsync consults the injector whether or not anything
    is armed, every write goes through the general zero-extend / overwrite
    / lost-range-trim path, and every fsync rebuilds the whole durable
    image from scratch (``_durable_image``).

    ``lazy`` is whether the disk model may still keep its durable image
    as a prefix of the file instead of a copy: it must stop at an
    overwrite below the image's end, a failed or a torn fsync, and
    start again at a crash — and at nothing else."""

    def __init__(self, seed):
        self.injector = FaultInjector(seed)
        self.data = bytearray()
        self.durable = b""
        self.dirty = []
        self.lost = []
        self.lazy = True

    def write(self, data, pos=None):
        """``pos=None`` appends; otherwise an ``r+b`` write at ``pos``."""
        injector = self.injector
        if injector.decide("enospc"):
            raise DiskFaultError("enospc", kind="enospc", written=0)
        if injector.decide("eio_write"):
            raise DiskFaultError("eio", kind="eio_write", written=0)
        if injector.decide("torn_write") and len(data) > 0:
            cut = injector.rng.randrange(0, len(data))
            self._write_at(data[:cut], pos)
            raise DiskFaultError("torn", kind="torn_write", written=cut)
        if injector.decide("bitflip") and len(data) > 0:
            corrupted = bytearray(data)
            index = injector.rng.randrange(0, len(corrupted))
            corrupted[index] ^= 1 << injector.rng.randrange(0, 8)
            data = bytes(corrupted)
        self._write_at(data, pos)
        return len(data)

    def _write_at(self, data, pos):
        if not data:
            return
        start = len(self.data) if pos is None else pos
        end = start + len(data)
        if start < len(self.durable):
            self.lazy = False
        if end > len(self.data):
            self.data.extend(b"\x00" * (end - len(self.data)))
        self.data[start:end] = data
        self.dirty.append((start, end))
        trimmed = []
        for a, b in self.lost:
            if b <= start or a >= end:
                trimmed.append((a, b))
                continue
            if a < start:
                trimmed.append((a, start))
            if b > end:
                trimmed.append((end, b))
        self.lost = trimmed

    def fsync(self):
        injector = self.injector
        if injector.decide("fsync_fail"):
            self.lazy = False
            self.lost.extend(self.dirty)
            self.dirty = []
            raise DiskFaultError("fsync_fail", kind="fsync_fail")
        if injector.decide("fsync_torn"):
            keep = injector.rng.randrange(0, len(self.dirty) + 1)
            survived, dropped = self.dirty[:keep], self.dirty[keep:]
            self.lazy = False
            self.dirty = []
            self.lost.extend(dropped)
            self.durable = self._durable_image(survived)
            raise DiskFaultError("fsync_torn", kind="fsync_torn")
        self.durable = self._durable_image(self.dirty)
        self.dirty = []

    def _durable_image(self, extra_dirty):
        size = len(self.durable)
        for a, b in extra_dirty:
            size = max(size, b)
        image = bytearray(size)
        image[: len(self.durable)] = self.durable
        for a, b in extra_dirty:
            image[a:b] = self.data[a:b]
        for a, b in self._clip(self.lost, size):
            image[a:b] = b"\x00" * (b - a)
        return bytes(image)

    @staticmethod
    def _clip(ranges, end):
        return [(a, min(b, end)) for a, b in ranges if a < end]

    def truncate(self, size):
        del self.data[size:]
        self.durable = self.durable[:size]
        self.dirty = self._clip(self.dirty, size)
        self.lost = self._clip(self.lost, size)

    def crash(self, torn):
        keep = 0
        tail = len(self.data) - len(self.durable)
        if torn and tail > 0:
            keep = self.injector.rng.randrange(0, tail + 1)
        base = len(self.durable)
        image = bytearray(self.durable)
        if keep > 0:
            image.extend(self.data[base : base + keep])
            for a, b in self._clip(self.lost, base + keep):
                if b > base:
                    start = max(a, base)
                    image[start:b] = b"\x00" * (b - start)
        self.data = bytearray(image)
        self.durable = bytes(image)
        self.dirty = []
        self.lost = []
        self.lazy = True


def is_lazy(fs, path="f"):
    """Whether the file's durable image is still ``data[:synced]``."""
    return fs._files[path].durable is None


def attempt(call, *args):
    """The outcome of one file operation, faults included."""
    try:
        return ("ok", call(*args))
    except DiskFaultError as exc:
        return (exc.kind, exc.written)


def run_against_oracle(seed, steps, armable, torn_crashes=True):
    rng = random.Random(seed)
    fs = MemoryFileSystem(seed=seed)
    oracle = OracleFile(seed)
    appender = fs.open("f", "ab")
    faults = 0
    for step in range(steps):
        draw = rng.random()
        if draw < 0.40:
            data = rng.randbytes(rng.randrange(0, 48))
            got = attempt(appender.write, data)
            assert got == attempt(oracle.write, data), (seed, step)
            faults += got[0] != "ok"
        elif draw < 0.52:
            # Overwrite somewhere in the file, or past its end (a hole).
            pos = rng.randrange(0, len(oracle.data) + 8)
            data = rng.randbytes(rng.randrange(1, 32))
            with fs.open("f", "r+b") as handle:
                handle.seek(pos)
                got = attempt(handle.write, data)
            assert got == attempt(oracle.write, data, pos), (seed, step)
            faults += got[0] != "ok"
        elif draw < 0.72:
            got = attempt(fs.fsync, appender)
            assert got == attempt(oracle.fsync), (seed, step)
            faults += got[0] != "ok"
        elif draw < 0.84 and armable:
            kind = rng.choice(armable)
            if rng.random() < 0.6:
                count = rng.randrange(1, 3)
                fs.injector.arm_once(kind, count)
                oracle.injector.arm_once(kind, count)
            else:
                rate = rng.choice((0.0, 0.3, 0.7))
                fs.injector.arm(kind, rate)
                oracle.injector.arm(kind, rate)
        elif draw < 0.88:
            fs.injector.clear()
            oracle.injector.clear()
        elif draw < 0.94:
            size = rng.randrange(0, len(oracle.data) + 1)
            appender.truncate(size)
            oracle.truncate(size)
        else:
            torn = torn_crashes and rng.random() < 0.7
            fs.crash(torn=torn)
            oracle.crash(torn)
        assert fs.read_bytes("f") == bytes(oracle.data), (seed, step)
        assert fs.durable_bytes("f") == oracle.durable, (seed, step)
        assert fs.unsynced_tail_len("f") == len(oracle.data) - len(oracle.durable)
        assert fs.injector.rolls == oracle.injector.rolls, (seed, step)
        assert fs.injector.injected == oracle.injector.injected, (seed, step)
        assert fs.injector.rng.getstate() == oracle.injector.rng.getstate()
        # A clone is a deep copy: crashing it leaves the original alone.
        if step % 16 == 0:
            twin = fs.clone(seed=step)
            twin.crash()
            assert twin.read_bytes("f") == oracle.durable
            assert fs.read_bytes("f") == bytes(oracle.data)
        # Reading the image, its tail length or a clone copied nothing out.
        assert is_lazy(fs) == oracle.lazy, (seed, step)
    return fs, faults


@pytest.mark.parametrize("seed", range(20))
def test_armed_disk_matches_the_full_rebuild_oracle(seed):
    fs, faults = run_against_oracle(seed, steps=300, armable=ALL_FAULTS)
    assert faults > 0  # the sequence really exercised the fault paths
    assert fs.injector.rolls > 0


@pytest.mark.parametrize("seed", range(5))
def test_unarmed_disk_never_touches_the_injector(seed):
    fs, faults = run_against_oracle(
        seed, steps=300, armable=(), torn_crashes=False
    )
    assert faults == 0
    assert fs.injector.rolls == 0 and fs.injector.injected == {}
    assert fs.injector.rng.getstate() == FaultInjector(seed).rng.getstate()


# ---------------------------------------------------------------------------
# The lazy durable image: a synced length until it must be a copy.
# ---------------------------------------------------------------------------


def test_appends_and_fsyncs_on_an_unarmed_disk_keep_the_image_lazy():
    fs = fs_with()
    fh = fs.open("f", "ab")
    for chunk in (b"one", b"", b"two-two", b"three"):
        fh.write(chunk)
        fs.fsync(fh)
        assert is_lazy(fs)
    fh.write(b"tail")
    assert fs.durable_bytes("f") == b"onetwo-twothree"
    assert fs.unsynced_tail_len("f") == 4
    assert fs.clone().durable_bytes("f") == b"onetwo-twothree"
    fh.truncate(6)  # a truncate while lazy clips the synced length
    assert fs.durable_bytes("f") == b"onetwo" and fs.unsynced_tail_len("f") == 0
    with fs.open("f", "r+b") as handle:
        handle.seek(10)  # past the end: a zero-filled hole, then bytes
        handle.write(b"far")
    fs.fsync(fh)
    assert fs.durable_bytes("f") == b"onetwo" + bytes(4) + b"far"
    assert is_lazy(fs) and is_lazy(fs.clone())


def test_an_overwrite_below_the_synced_length_copies_the_image_out():
    fs = fs_with()
    fh = fs.open("f", "ab")
    fh.write(b"abcdef")
    fs.fsync(fh)
    with fs.open("f", "r+b") as handle:
        handle.seek(6)
        handle.write(b"gh")  # at the synced length: still a prefix
        assert is_lazy(fs)
        handle.seek(2)
        handle.write(b"XY")
    assert not is_lazy(fs)
    assert fs.read_bytes("f") == b"abXYefgh"
    assert fs.durable_bytes("f") == b"abcdef"
    fs.fsync(fh)
    assert fs.durable_bytes("f") == b"abXYefgh"


@pytest.mark.parametrize("kind", ["fsync_fail", "fsync_torn"])
def test_a_failed_or_torn_fsync_copies_the_image_out(kind):
    fs = fs_with()
    fh = fs.open("f", "ab")
    fh.write(b"kept")
    fs.fsync(fh)
    fh.write(b"doomed")
    fs.injector.arm_once(kind)
    with pytest.raises(DiskFaultError):
        fs.fsync(fh)
    assert not is_lazy(fs)
    fh.write(b"later")
    fs.fsync(fh)
    assert fs.durable_bytes("f") in (
        b"kept" + bytes(6) + b"later",  # the doomed range was dropped
        b"keptdoomedlater",  # fsync_torn: it reached the platter first
    )


def test_a_crash_makes_the_image_the_file_and_the_node_lazy_again():
    fs = fs_with("fsync_fail")
    fh = fs.open("f", "ab")
    fh.write(b"lost")
    with pytest.raises(DiskFaultError):
        fs.fsync(fh)
    fh.write(b"kept")
    fs.fsync(fh)
    fh.write(b"tail")
    assert not is_lazy(fs)
    fs.crash_file("f", keep_tail=2)
    assert is_lazy(fs)
    assert fs.read_bytes("f") == fs.durable_bytes("f") == bytes(4) + b"keptta"
    assert fs.unsynced_tail_len("f") == 0
    # Lazy already: the crash trims the file back to its synced length.
    fh.write(b"more")
    fs.crash()
    assert is_lazy(fs) and fs.read_bytes("f") == bytes(4) + b"keptta"


def test_a_lazy_fsync_ends_the_image_at_the_last_dirty_byte():
    """A gap between dirty ranges is zeroes in the file as in the image,
    so the lazy fsync need not look for one; but the bytes past the last
    dirty range were never synced, even the zeroes a truncate left."""
    fs = fs_with()
    fh = fs.open("f", "ab")
    fh.write(b"base")
    fs.fsync(fh)
    with fs.open("f", "r+b") as handle:
        handle.seek(6)
        handle.write(b"xy")  # a gap at 4..6
        handle.seek(12)
        handle.write(b"zz")
    fh.truncate(10)  # drops the second range; 8..10 is a zero, not dirty
    fs.fsync(fh)
    assert is_lazy(fs)
    assert fs.durable_bytes("f") == b"base" + bytes(2) + b"xy"
    assert fs.unsynced_tail_len("f") == 2
