"""A fault-injecting file layer for durability testing.

Real durability bugs live below ``write()``: torn appends, write errors,
fsync calls that fail after the kernel already dropped the dirty pages
(the "fsyncgate" class), and crashes that discard everything since the
last successful fsync.  None of those can be provoked deterministically
through the operating system, so this module models a disk:

- :class:`MemoryFileSystem` — an in-memory filesystem that tracks, per
  file, the *volatile* contents (the page-cache view every read sees) and
  the *durable* image (what survives :meth:`MemoryFileSystem.crash`).
  Only a successful ``fsync`` moves bytes from volatile to durable.  The
  image is not a second copy of the file: while it is a prefix of the
  volatile contents — always, on a disk with nothing armed — it is kept
  as a synced length, and an fsync just moves that length.  It is
  copied out only once it would differ from that prefix (a write below
  the synced length, a failed or torn fsync), and a crash, which makes
  the image the contents, ends the copy again.
- :class:`FaultInjector` — a seeded, deterministic source of injected
  faults, armed per kind with a probability (or scripted one-shot), that
  the filesystem consults on every write and fsync while anything is
  armed — always in the order of :data:`WRITE_FAULTS` /
  :data:`FSYNC_FAULTS`, so a seed replays the same faults.
- :class:`OsFileSystem` — the same interface over the real OS (with real
  ``os.fsync``), so production code paths and tests share one API.

Crash semantics (``MemoryFileSystem.crash``): each file reverts to its
durable image; optionally a *prefix* of the un-fsynced tail survives (the
OS may have written some of it back on its own), which is exactly how
torn final records appear — at byte granularity.

Failed-fsync semantics: the dirty byte range at the moment of the failure
is marked *lost* — a later fsync on the same file returns success without
those pages ever reaching the disk, and the crash image shows zeroes in
their place.  Code that "handles" an fsync error by retrying the same
file therefore loses data silently, while code that rewrites the records
to a fresh file does not.  This is deliberate: it is the post-fsyncgate
contract of every mainstream kernel.
"""

from __future__ import annotations

import io
import os
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DiskFaultError, StorageError

#: Faults consulted on every ``write``.
WRITE_FAULTS = ("enospc", "eio_write", "torn_write", "bitflip")
#: Faults consulted on every ``fsync``.
FSYNC_FAULTS = ("fsync_fail", "fsync_torn")
ALL_FAULTS = WRITE_FAULTS + FSYNC_FAULTS


class FaultInjector:
    """Seeded, deterministic fault decisions; one per filesystem.

    ``arm(kind, rate)`` makes every matching operation fault with the
    given probability; ``arm_once(kind, count)`` scripts the next
    ``count`` matching operations to fault deterministically (scripted
    faults are consumed before probabilistic ones are rolled).
    """

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self._rates: Dict[str, float] = {}
        self._once: Dict[str, int] = {}
        self.injected: Dict[str, int] = {}
        self.rolls = 0

    def arm(self, kind: str, rate: float = 1.0) -> None:
        if kind not in ALL_FAULTS:
            raise StorageError(f"unknown fault kind {kind!r}")
        if not 0.0 <= rate <= 1.0:
            raise StorageError(f"fault rate must be in [0, 1], got {rate}")
        self._rates[kind] = rate

    def arm_once(self, kind: str, count: int = 1) -> None:
        if kind not in ALL_FAULTS:
            raise StorageError(f"unknown fault kind {kind!r}")
        self._once[kind] = self._once.get(kind, 0) + count

    def clear(self, kind: Optional[str] = None) -> None:
        if kind is None:
            self._rates.clear()
            self._once.clear()
        else:
            self._rates.pop(kind, None)
            self._once.pop(kind, None)

    def active(self) -> Dict[str, float]:
        return dict(self._rates)

    def decide(self, kind: str) -> bool:
        """Should this operation suffer fault ``kind``?"""
        pending = self._once.get(kind, 0)
        if pending:
            self._once[kind] = pending - 1
            if self._once[kind] == 0:
                del self._once[kind]
            self._record(kind)
            return True
        rate = self._rates.get(kind)
        if not rate:
            return False
        self.rolls += 1
        if self.rng.random() < rate:
            self._record(kind)
            return True
        return False

    def _record(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1


class _MemNode:
    """One file's state: volatile contents, durable image, lost pages.

    The durable image is kept *lazily*: while ``durable`` is None it is
    ``data[:synced]``, with no copy, and there are no lost pages.  It is
    copied out (:meth:`materialize`; ``synced`` is then unused) only when
    it would differ from that prefix: a write below ``synced``, or a
    failed or torn fsync (lost pages).  A crash makes ``data`` the image,
    so the node is lazy again after it.
    """

    __slots__ = ("data", "durable", "synced", "dirty", "lost")

    def __init__(self):
        self.data = bytearray()  # the page-cache view
        # What survives a crash: None while it is data[:synced]; fsync
        # patches it in place once copied out.
        self.durable: Optional[bytearray] = None
        self.synced = 0
        self.dirty: List[Tuple[int, int]] = []  # modified since last fsync
        self.lost: List[Tuple[int, int]] = []  # dropped dirty pages

    def materialize(self) -> None:
        """Copy the durable image out of ``data`` (once)."""
        if self.durable is None:
            self.durable = self.data[: self.synced]

    def durable_len(self) -> int:
        return self.synced if self.durable is None else len(self.durable)

    def clone(self) -> "_MemNode":
        node = _MemNode()
        node.data = bytearray(self.data)
        if self.durable is not None:
            node.durable = bytearray(self.durable)
        node.synced = self.synced
        node.dirty = list(self.dirty)
        node.lost = list(self.lost)
        return node


def _clip(ranges: List[Tuple[int, int]], end: int) -> List[Tuple[int, int]]:
    return [(a, min(b, end)) for a, b in ranges if a < end]


class MemoryFile:
    """A file handle over a :class:`_MemNode`; file-object-ish API."""

    def __init__(self, fs: "MemoryFileSystem", path: str, node: _MemNode, mode: str):
        self._fs = fs
        self._path = path
        self._node = node
        self._readonly = "r" in mode and "+" not in mode
        self._append = "a" in mode
        self._pos = len(node.data) if self._append else 0
        self.closed = False

    # -- writing -----------------------------------------------------------
    def write(self, data: bytes) -> int:
        if self.closed:
            self._check_open()
        if self._readonly:
            raise StorageError(f"file {self._path!r} opened read-only")
        data = bytes(data)
        injector = self._fs.injector
        # With nothing armed every decide() answers no without touching the
        # RNG or a counter, so one test stands in for all four; with
        # anything armed all four are made, in this order.
        if injector is not None and (injector._rates or injector._once):
            if injector.decide("enospc"):
                raise DiskFaultError(
                    f"no space left writing {self._path!r}",
                    kind="enospc",
                    written=0,
                )
            if injector.decide("eio_write"):
                raise DiskFaultError(
                    f"I/O error writing {self._path!r}", kind="eio_write", written=0
                )
            if injector.decide("torn_write") and len(data) > 0:
                cut = injector.rng.randrange(0, len(data))
                self._write_at(data[:cut])
                raise DiskFaultError(
                    f"torn write to {self._path!r}: {cut} of {len(data)} bytes",
                    kind="torn_write",
                    written=cut,
                )
            if injector.decide("bitflip") and len(data) > 0:
                corrupted = bytearray(data)
                index = injector.rng.randrange(0, len(corrupted))
                corrupted[index] ^= 1 << injector.rng.randrange(0, 8)
                data = bytes(corrupted)
        self._write_at(data)
        return len(data)

    def _write_at(self, data: bytes) -> None:
        if not data:
            return
        node = self._node
        if self._append:
            # Past the end of the file, so past every lost range too:
            # nothing to zero-extend, nothing to trim.
            start = len(node.data)
            self._pos = end = start + len(data)
            node.data += data
            node.dirty.append((start, end))
            return
        start = self._pos
        end = start + len(data)
        if start < node.synced and node.durable is None:
            node.materialize()  # the image keeps the bytes this overwrites
        if end > len(node.data):
            node.data.extend(b"\x00" * (end - len(node.data)))
        node.data[start:end] = data
        self._pos = end
        node.dirty.append((start, end))
        # Rewritten bytes are dirty again — no longer "lost" pages; a
        # partially overwritten lost range shrinks to the untouched part.
        trimmed: List[Tuple[int, int]] = []
        for a, b in node.lost:
            if b <= start or a >= end:
                trimmed.append((a, b))
                continue
            if a < start:
                trimmed.append((a, start))
            if b > end:
                trimmed.append((end, b))
        node.lost = trimmed

    def flush(self) -> None:
        if self.closed:  # writes go straight to the "page cache"
            self._check_open()

    def fsync(self) -> None:
        """Make this file's contents durable (or fail trying)."""
        self._check_open()
        node = self._node
        injector = self._fs.injector
        # As in write(): consulted only while something is armed.
        if injector is not None and (injector._rates or injector._once):
            if injector.decide("fsync_fail"):
                # Lost pages read as zeroes in the image once it reaches
                # them, so it can no longer be a prefix of ``data``.
                node.materialize()
                node.lost.extend(node.dirty)
                node.dirty = []
                raise DiskFaultError(
                    f"fsync failed for {self._path!r} (dirty pages dropped)",
                    kind="fsync_fail",
                )
            if injector.decide("fsync_torn"):
                # A prefix of the dirty ranges reached the platter before
                # the device error; the rest is dropped, as after fsync_fail.
                keep = injector.rng.randrange(0, len(node.dirty) + 1)
                survived, dropped = node.dirty[:keep], node.dirty[keep:]
                node.materialize()
                node.dirty = []
                node.lost.extend(dropped)
                self._sync_ranges(survived)
                raise DiskFaultError(
                    f"fsync interrupted for {self._path!r}", kind="fsync_torn"
                )
        if node.durable is None:
            # A lazy image has no lost pages, and every byte of ``data``
            # past ``synced`` that no dirty range covers is a zero a write
            # past the end left — a zero in the image too.  So the image
            # is still a prefix of ``data``: just move its length.
            synced = node.synced
            for _a, b in node.dirty:
                if b > synced:
                    synced = b
            node.synced = synced
        else:
            self._sync_ranges(node.dirty)
        node.dirty = []

    def _sync_ranges(self, ranges: List[Tuple[int, int]]) -> None:
        """Copy the given now-synced dirty ranges into the copied-out
        durable image and zero its lost pages (they never reached the
        disk).  The image is patched in place: the cost is the bytes
        synced, not the file."""
        node = self._node
        durable = node.durable
        size = len(durable)
        for _a, b in ranges:
            if b > size:
                size = b
        if size > len(durable):
            durable.extend(bytes(size - len(durable)))
        data = node.data
        for a, b in ranges:
            durable[a:b] = data[a:b]
        if node.lost:
            for a, b in _clip(node.lost, size):
                durable[a:b] = bytes(b - a)

    # -- reading / positioning ----------------------------------------------
    def read(self, size: int = -1) -> bytes:
        self._check_open()
        data = bytes(self._node.data[self._pos :])
        if size >= 0:
            data = data[:size]
        self._pos += len(data)
        return data

    def seek(self, pos: int, whence: int = io.SEEK_SET) -> int:
        self._check_open()
        if whence == io.SEEK_SET:
            self._pos = pos
        elif whence == io.SEEK_CUR:
            self._pos += pos
        elif whence == io.SEEK_END:
            self._pos = len(self._node.data) + pos
        else:
            raise StorageError(f"bad whence {whence}")
        return self._pos

    def truncate(self, size: Optional[int] = None) -> int:
        """Shrink the file.  Modelled as immediately durable (a metadata
        operation); recovery code truncates torn tails through this."""
        self._check_open()
        size = self._pos if size is None else size
        node = self._node
        del node.data[size:]
        if node.durable is None:
            node.synced = min(node.synced, size)
        else:
            del node.durable[size:]
        node.dirty = _clip(node.dirty, size)
        node.lost = _clip(node.lost, size)
        return size

    def close(self) -> None:
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise StorageError(f"file {self._path!r} is closed")

    # Context-manager support mirrors real file objects.
    def __enter__(self) -> "MemoryFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryFileSystem:
    """Deterministic in-memory filesystem with volatile/durable split.

    Directory operations (create, remove, rename) are modelled as
    immediately durable; only file *contents* distinguish the page-cache
    view from the on-disk image.  ``replace`` is atomic, like
    ``os.replace`` on a POSIX filesystem.
    """

    def __init__(self, seed: int = 0, injector: Optional[FaultInjector] = None):
        self.injector = injector if injector is not None else FaultInjector(seed)
        self._files: Dict[str, _MemNode] = {}
        self.crashes = 0

    # -- the file API --------------------------------------------------------
    def open(self, path, mode: str = "rb") -> MemoryFile:
        path = str(path)
        if "b" not in mode:
            raise StorageError("MemoryFileSystem is binary-only")
        node = self._files.get(path)
        if node is None:
            if "r" in mode:
                raise StorageError(f"no such file {path!r}")
            node = _MemNode()
            self._files[path] = node
        if "w" in mode:
            node.data = bytearray()
            node.durable = None
            node.synced = 0
            node.dirty = []
            node.lost = []
        return MemoryFile(self, path, node, mode)

    def fsync(self, fileobj) -> None:
        fileobj.fsync()

    def exists(self, path) -> bool:
        return str(path) in self._files

    def read_bytes(self, path) -> bytes:
        node = self._files.get(str(path))
        if node is None:
            raise StorageError(f"no such file {path!r}")
        return bytes(node.data)

    def replace(self, src, dst) -> None:
        src, dst = str(src), str(dst)
        node = self._files.pop(src, None)
        if node is None:
            raise StorageError(f"no such file {src!r}")
        self._files[dst] = node

    def remove(self, path) -> None:
        if self._files.pop(str(path), None) is None:
            raise StorageError(f"no such file {path!r}")

    def listdir(self, prefix: str = "") -> List[str]:
        """Paths starting with ``prefix``, sorted (flat namespace)."""
        return sorted(p for p in self._files if p.startswith(prefix))

    def makedirs(self, path) -> None:
        """No-op: the namespace is flat; kept for interface parity."""

    # -- crash / inspection ---------------------------------------------------
    def crash(self, torn: bool = False) -> None:
        """Power loss: every file reverts to its durable image.

        With ``torn=True`` a random (injector-seeded) prefix of each
        file's un-fsynced tail survives as well — the OS wrote part of it
        back on its own — so recovery code sees torn records at arbitrary
        byte offsets.  Lost pages (dropped after a failed fsync) never
        survive regardless.
        """
        self.crashes += 1
        for node in self._files.values():
            keep = 0
            tail = len(node.data) - node.durable_len()
            if torn and tail > 0:
                keep = self.injector.rng.randrange(0, tail + 1)
            self._crash_node(node, keep)

    def crash_file(self, path, keep_tail: int = 0) -> None:
        """Crash a single file, keeping exactly ``keep_tail`` bytes of its
        un-fsynced tail — the enumeration primitive crash-point tests use."""
        node = self._files.get(str(path))
        if node is None:
            raise StorageError(f"no such file {path!r}")
        self._crash_node(node, keep_tail)

    @staticmethod
    def _crash_node(node: _MemNode, keep: int) -> None:
        """The image, with ``keep`` bytes of the unsynced tail, becomes
        ``data``: the node is lazy again."""
        if node.durable is None:
            base = node.synced
            image = node.data
            del image[base + keep :]  # a lazy node has no lost pages
        else:
            base = len(node.durable)
            image = node.durable
            if keep > 0:
                image += node.data[base : base + keep]
                for a, b in _clip(node.lost, base + keep):
                    if b > base:
                        start = max(a, base)
                        image[start:b] = bytes(b - start)
        node.data = image
        node.durable = None
        node.synced = len(image)
        node.dirty = []
        node.lost = []

    def durable_bytes(self, path) -> bytes:
        """The bytes that would survive a crash right now."""
        node = self._files.get(str(path))
        if node is None:
            raise StorageError(f"no such file {path!r}")
        if node.durable is None:  # read the image without copying it out
            return bytes(node.data[: node.synced])
        return bytes(node.durable)

    def unsynced_tail_len(self, path) -> int:
        node = self._files.get(str(path))
        if node is None:
            raise StorageError(f"no such file {path!r}")
        return len(node.data) - node.durable_len()

    def clone(self, seed: int = 0) -> "MemoryFileSystem":
        """A deep copy with a fresh, fault-free injector — lets a test
        crash the copy at many points without disturbing the original."""
        twin = MemoryFileSystem(seed=seed)
        twin._files = {path: node.clone() for path, node in self._files.items()}
        return twin


class OsFileSystem:
    """The same interface over the real operating system."""

    def open(self, path, mode: str = "rb"):
        return open(path, mode)

    def fsync(self, fileobj) -> None:
        fileobj.flush()
        os.fsync(fileobj.fileno())

    def exists(self, path) -> bool:
        return os.path.exists(path)

    def read_bytes(self, path) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    def replace(self, src, dst) -> None:
        os.replace(src, dst)

    def remove(self, path) -> None:
        os.remove(path)

    def listdir(self, prefix: str = "") -> List[str]:
        directory = os.path.dirname(prefix) or "."
        if not os.path.isdir(directory):
            return []
        return sorted(
            os.path.join(directory, name)
            for name in os.listdir(directory)
            if os.path.join(directory, name).startswith(str(prefix))
        )

    def makedirs(self, path) -> None:
        os.makedirs(path, exist_ok=True)

    injector = None  # the real OS injects its own faults


#: Shared default instance for code paths that talk to the real disk.
OS_FS = OsFileSystem()
