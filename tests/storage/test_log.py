"""Append-log tests including crash-recovery behaviour."""

import struct
import zlib

import pytest

from repro.errors import StorageError
from repro.storage.log import AppendLog


def test_memory_log_append_and_read():
    log = AppendLog()
    assert log.append(b"one") == 0
    assert log.append(b"two") == 1
    assert len(log) == 2
    assert log.read(0) == b"one"
    assert [r.payload for r in log.records()] == [b"one", b"two"]


def test_read_out_of_range():
    log = AppendLog()
    with pytest.raises(StorageError):
        log.read(0)


def test_non_bytes_payload_rejected():
    log = AppendLog()
    with pytest.raises(StorageError):
        log.append("text")


def test_file_log_persists_across_reopen(tmp_path):
    path = tmp_path / "store.log"
    log = AppendLog(path)
    log.append(b"alpha")
    log.append(b"beta")
    log.close()
    reopened = AppendLog(path)
    assert [r.payload for r in reopened.records()] == [b"alpha", b"beta"]
    reopened.append(b"gamma")
    reopened.close()
    third = AppendLog(path)
    assert len(third) == 3
    third.close()


def test_torn_final_record_is_truncated(tmp_path):
    path = tmp_path / "torn.log"
    log = AppendLog(path)
    log.append(b"good record")
    log.close()
    # Simulate a crash mid-append: a frame header promising more bytes
    # than were written.
    with open(path, "ab") as fh:
        fh.write(struct.pack("!II", 100, 0) + b"only-part")
    recovered = AppendLog(path)
    assert [r.payload for r in recovered.records()] == [b"good record"]
    recovered.append(b"after recovery")
    recovered.close()
    final = AppendLog(path)
    assert [r.payload for r in final.records()] == [b"good record", b"after recovery"]
    final.close()


def test_corrupt_crc_stops_replay(tmp_path):
    path = tmp_path / "corrupt.log"
    log = AppendLog(path)
    log.append(b"first")
    log.append(b"second")
    log.close()
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # flip a bit in the last payload
    path.write_bytes(bytes(data))
    recovered = AppendLog(path)
    assert [r.payload for r in recovered.records()] == [b"first"]
    recovered.close()


def test_empty_payload_roundtrip(tmp_path):
    path = tmp_path / "empty.log"
    log = AppendLog(path)
    log.append(b"")
    log.close()
    assert [r.payload for r in AppendLog(path).records()] == [b""]


# ---------------------------------------------------------------------------
# Edge cases and fault-driven recovery (over the in-memory filesystem).
# ---------------------------------------------------------------------------

from repro.errors import DiskFaultError, LogCorruptionError
from repro.storage.faultio import MemoryFileSystem


def test_zero_length_file_recovers_empty():
    fs = MemoryFileSystem()
    fs.open("empty.log", "ab").close()
    log = AppendLog("empty.log", fs=fs)
    assert len(log) == 0
    log.append(b"first")
    log.close()
    assert [r.payload for r in AppendLog("empty.log", fs=fs).records()] == [
        b"first"
    ]


def test_double_close_is_noop_and_append_after_close_raises(tmp_path):
    log = AppendLog(tmp_path / "c.log")
    log.append(b"x")
    log.close()
    log.close()  # no-op, no error
    with pytest.raises(StorageError, match="closed"):
        log.append(b"y")


def test_close_syncs_by_default():
    fs = MemoryFileSystem()
    log = AppendLog("s.log", fs=fs)
    log.append(b"payload")
    log.close()
    assert fs.unsynced_tail_len("s.log") == 0
    fs.crash()
    assert [r.payload for r in AppendLog("s.log", fs=fs).records()] == [
        b"payload"
    ]


def test_close_without_sync_abandons_tail():
    fs = MemoryFileSystem()
    log = AppendLog("ns.log", fs=fs)
    log.append(b"volatile")
    log.close(sync=False)
    fs.crash()
    assert len(AppendLog("ns.log", fs=fs)) == 0


def test_sync_tracks_synced_records():
    fs = MemoryFileSystem()
    log = AppendLog("w.log", fs=fs)
    log.append(b"a")
    assert log.synced_records == 0
    log.sync()
    assert log.synced_records == 1
    log.append(b"b")
    fs.injector.arm_once("fsync_fail")
    with pytest.raises(DiskFaultError):
        log.sync()
    assert log.synced_records == 1  # the failed fsync promised nothing


def test_torn_write_self_heals():
    fs = MemoryFileSystem(seed=3)
    log = AppendLog("t.log", fs=fs)
    log.append(b"keep me")
    fs.injector.arm_once("torn_write")
    with pytest.raises(DiskFaultError):
        log.append(b"torn away")
    assert log.healed_torn_writes == 1
    # The partial frame was truncated: the log accepts appends cleanly.
    log.append(b"after")
    log.close()
    assert [r.payload for r in AppendLog("t.log", fs=fs).records()] == [
        b"keep me",
        b"after",
    ]


def test_torn_tail_recovery_at_every_byte_offset():
    """Crash the file at every possible byte length of the final frame;
    recovery must always salvage exactly the synced records and truncate
    the rest — no offset may produce a crash or a phantom record."""
    fs = MemoryFileSystem()
    log = AppendLog("sweep.log", fs=fs)
    log.append(b"stable-record")
    log.sync()
    log.append(b"the final frame, torn at every offset")
    tail = fs.unsynced_tail_len("sweep.log")
    assert tail > 0
    for keep in range(tail + 1):
        probe = fs.clone(seed=keep)
        probe.crash_file("sweep.log", keep_tail=keep)
        recovered = AppendLog("sweep.log", fs=probe)
        payloads = [r.payload for r in recovered.records()]
        if keep == tail:
            assert payloads == [
                b"stable-record",
                b"the final frame, torn at every offset",
            ]
        else:
            assert payloads == [b"stable-record"]
        recovered.close()


def test_mid_log_corruption_strict_raises_permissive_salvages():
    fs = MemoryFileSystem()
    log = AppendLog("rot.log", fs=fs)
    log.append(b"first")
    log.append(b"second")
    log.append(b"third")
    log.close()
    data = bytearray(fs.read_bytes("rot.log"))
    # Corrupt the middle record's payload (bit rot, not a torn tail).
    offset = len(data) - (8 + 5) - (8 + 6) + 8  # start of "second"
    data[offset] ^= 0xFF
    with fs.open("rot.log", "wb") as fh:
        fh.write(bytes(data))
    with pytest.raises(LogCorruptionError, match="permissive"):
        AppendLog("rot.log", fs=fs)  # strict is the default
    salvaged = AppendLog("rot.log", fs=fs, recovery="permissive")
    assert [r.payload for r in salvaged.records()] == [b"first", b"third"]
    assert salvaged.corrupt_records_skipped == 1


def test_zero_run_does_not_parse_as_records():
    """A lost-page hole reads as zeroes; with the CRC covering the length
    field, an all-zero frame is invalid — not an infinite run of valid
    empty records."""
    fs = MemoryFileSystem()
    log = AppendLog("hole.log", fs=fs)
    log.append(b"real")
    log.sync()
    with fs.open("hole.log", "ab") as fh:
        fh.write(b"\x00" * 64)
    recovered = AppendLog("hole.log", fs=fs)
    assert [r.payload for r in recovered.records()] == [b"real"]
    assert recovered.truncated_bytes == 64


def test_invalid_recovery_mode_rejected():
    with pytest.raises(StorageError, match="recovery mode"):
        AppendLog(recovery="lenient")


def test_size_bytes_is_the_file_length_on_the_real_os(tmp_path):
    """Counted, never read — and a bytearray payload frames like bytes."""
    path = tmp_path / "sized.log"
    log = AppendLog(path)
    assert log.size_bytes() == 0
    log.append(b"alpha")
    log.append(bytearray(b"beta"))
    assert log.size_bytes() == path.stat().st_size == 2 * 8 + 9
    log.close()
    with open(path, "ab") as fh:
        fh.write(struct.pack("!II", 100, 0) + b"torn")
    recovered = AppendLog(path)  # truncates the torn tail
    assert recovered.size_bytes() == path.stat().st_size == 2 * 8 + 9
    assert [r.payload for r in recovered.records()] == [b"alpha", b"beta"]
    recovered.close()
    assert AppendLog().size_bytes() == 0  # memory-only: no file


def test_append_writes_one_frame_in_one_write():
    payloads = [b"zero", b"alpha", b"", b"gamma" * 40]
    fs = MemoryFileSystem()
    log = AppendLog("a.log", fs=fs)
    assert [log.append(payload) for payload in payloads] == [0, 1, 2, 3]
    heads = [struct.pack("!I", len(p)) for p in payloads]
    frames = b"".join(
        head + struct.pack("!I", zlib.crc32(p, zlib.crc32(head))) + p
        for head, p in zip(heads, payloads)
    )
    assert fs.read_bytes("a.log") == frames
    assert log.size_bytes() == len(frames)
    assert [r.payload for r in log.records()] == payloads
    # One write per record: one dirty range each.
    assert len(fs._files["a.log"].dirty) == len(payloads)


@pytest.mark.parametrize("kind", ["enospc", "eio_write", "torn_write"])
def test_append_is_all_or_nothing(kind):
    fs = MemoryFileSystem(seed=5)
    log = AppendLog("b.log", fs=fs)
    log.append(b"whole")
    before = fs.read_bytes("b.log")
    fs.injector.arm_once(kind)
    with pytest.raises(DiskFaultError) as err:
        log.append(b"one-two-three" * 4)
    assert fs.injector.injected == {kind: 1}  # one write, one consultation
    # A torn write left a partial frame, and the log healed it away.
    assert log.healed_torn_writes == (err.value.written > 0) == (kind == "torn_write")
    assert fs.read_bytes("b.log") == before and log.size_bytes() == len(before)
    assert len(log) == 1
    with pytest.raises(StorageError, match="bytes"):
        log.append("text")
    assert fs.read_bytes("b.log") == before and len(log) == 1
    log.append(b"after")
    log.close()
    assert [r.payload for r in AppendLog("b.log", fs=fs).records()] == [
        b"whole",
        b"after",
    ]
