"""An append-only, checksummed record log.

The durability primitive under the object store and the Stabilizer WAL:
every mutation is appended before it is applied, and a restarted store
replays the log.  Records are framed as ``length | crc32 | payload``
where the CRC covers the length field *and* the payload, so a run of
zeroes (dropped pages after a failed fsync) can never parse as valid
empty records.

Recovery distinguishes two corruption shapes:

- a **torn tail** — the final frame is incomplete, or the final complete
  frame fails its CRC (the classic crash-mid-append) — is truncated in
  every mode, because nothing after it can exist;
- **mid-log corruption** — a CRC mismatch *followed by more valid data*
  — is bit rot, not a crash artifact.  In ``recovery="strict"`` mode
  (the default) it raises :class:`~repro.errors.LogCorruptionError`
  instead of silently discarding the good records behind it; in
  ``recovery="permissive"`` mode the corrupt record is skipped, counted
  in :attr:`AppendLog.corrupt_records_skipped`, and the records after it
  are salvaged.

All file I/O goes through a filesystem object (see
:mod:`repro.storage.faultio`), so the same code runs over the real OS —
where :meth:`AppendLog.sync` is a true ``os.fsync`` — and over the
fault-injecting in-memory filesystem used by crash-point tests.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Union

from repro.errors import DiskFaultError, LogCorruptionError, StorageError
from repro.storage.faultio import OS_FS

_FRAME = struct.Struct("!II")  # payload length, crc32(length || payload)
_LEN = struct.Struct("!I")

RECOVERY_MODES = ("strict", "permissive")


def _frame_crc(payload: bytes) -> int:
    """CRC over the length field and the payload, so an all-zero frame
    (length 0, crc 0) is *invalid* rather than a valid empty record."""
    return zlib.crc32(payload, zlib.crc32(_LEN.pack(len(payload))))


class LogRecord(NamedTuple):
    index: int
    payload: bytes


class AppendLog:
    """See module docstring.

    With ``path=None`` the log is memory-only (used by simulations that
    model persistence rather than performing it).  ``fs`` selects the
    filesystem implementation (default: the real OS).
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        fs=None,
        recovery: str = "strict",
    ):
        if recovery not in RECOVERY_MODES:
            raise StorageError(
                f"recovery mode must be one of {RECOVERY_MODES}, got {recovery!r}"
            )
        self.path = Path(path) if path is not None else None
        self.fs = fs if fs is not None else OS_FS
        self.recovery_mode = recovery
        self._records: List[bytes] = []
        self._file = None
        self._closed = False
        self._size = 0  # bytes of clean, parseable frames in the file
        self.corrupt_records_skipped = 0
        self.truncated_bytes = 0
        self.healed_torn_writes = 0
        self.synced_records = 0
        if self.path is not None:
            if self.fs.exists(self.path):
                self._recover()
            self._file = self.fs.open(self.path, "ab")
            # Everything recovered from the file is on disk by definition.
            self.synced_records = len(self._records)

    # -- writes ------------------------------------------------------------
    def append(self, payload: bytes) -> int:
        """Append one record in one ``write`` and one flush; returns its
        index.

        All or nothing: a payload that is not bytes is refused before a
        byte is written, and a refused or torn write truncates the file
        back to its last whole frame and propagates the
        :class:`~repro.errors.DiskFaultError` — the record is *not* in the
        log.
        """
        if self._closed:
            raise StorageError("append to a closed log")
        if type(payload) is not bytes:
            if not isinstance(payload, (bytes, bytearray)):
                raise StorageError(
                    f"log payloads are bytes, got {type(payload).__name__}"
                )
            payload = bytes(payload)
        if self._file is not None:
            head = _LEN.pack(len(payload))
            # The CRC of _frame_crc, over the length field already packed.
            crc = zlib.crc32(payload, zlib.crc32(head))
            data = b"".join((head, _LEN.pack(crc), payload))
            try:
                self._file.write(data)
            except DiskFaultError as exc:
                if exc.written:
                    self._file.truncate(self._size)
                    self.healed_torn_writes += 1
                raise
            self._file.flush()
            self._size += len(data)
        self._records.append(payload)
        return len(self._records) - 1

    def sync(self) -> None:
        """Force bytes to stable storage — a real ``os.fsync``.

        Raises :class:`~repro.errors.DiskFaultError` when the device (or
        the fault injector) fails the flush; in that case
        :attr:`synced_records` does not advance.
        """
        if self._file is not None:
            self._file.flush()
            self.fs.fsync(self._file)
        self.synced_records = len(self._records)

    def close(self, sync: bool = True) -> None:
        """Close the log, syncing first by default.

        ``sync=False`` abandons un-fsynced bytes to their fate — the
        crash path (a crashing node must not get a free flush).
        Closing twice is a no-op; appending after close raises.
        """
        if self._file is not None:
            if sync:
                self._file.flush()
                self.fs.fsync(self._file)
                self.synced_records = len(self._records)
            self._file.close()
            self._file = None
        self._closed = True

    # -- reads --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def size_bytes(self) -> int:
        """Length of the file in bytes, from the log's own count of the
        frames in it rather than a read (0 for a memory-only log)."""
        return self._size

    def read(self, index: int) -> bytes:
        try:
            return self._records[index]
        except IndexError:
            raise StorageError(f"log index {index} out of range") from None

    def records(self) -> Iterator[LogRecord]:
        for index, payload in enumerate(self._records):
            yield LogRecord(index, payload)

    # -- recovery ------------------------------------------------------------
    def _recover(self) -> None:
        data = self.fs.read_bytes(self.path)
        offset = 0
        parse_end = 0  # where clean parsing stopped; the tail after it is torn
        while offset + _FRAME.size <= len(data):
            length, crc = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            end = start + length
            if end > len(data):
                break  # incomplete final frame: torn tail
            payload = data[start:end]
            if _frame_crc(payload) == crc:
                self._records.append(payload)
                offset = end
                parse_end = end
                continue
            # CRC mismatch on a complete frame.
            if end == len(data):
                break  # final frame: ambiguous with a torn tail — truncate
            if not any(data[offset:]):
                # Everything from here to EOF is zeroes: a lost-page hole
                # (dropped after a failed fsync), not bit rot — truncate.
                break
            if self.recovery_mode == "strict":
                raise LogCorruptionError(
                    f"{self.path}: record {len(self._records)} at byte "
                    f"{offset} fails its checksum but valid data follows — "
                    "mid-log corruption (bit rot), not a torn tail; "
                    "reopen with recovery='permissive' to salvage"
                )
            # Permissive: skip the claimed frame, salvage what follows.
            self.corrupt_records_skipped += 1
            offset = end
            parse_end = end
        if parse_end != len(data):
            # Truncate the torn/corrupt tail so future appends are clean.
            self.truncated_bytes += len(data) - parse_end
            with self.fs.open(self.path, "r+b") as fh:
                fh.truncate(parse_end)
        self._size = parse_end
