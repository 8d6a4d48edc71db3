"""The paper's applications, built on the Stabilizer library.

- :mod:`repro.apps.kvstore` — the geo-replicated K/V store of Section V-A
  (a local object store + Stabilizer mirroring, primary-site writes);
- :mod:`repro.apps.backup` — the Dropbox-like file backup service used in
  the Section VI-B experiments;
- :mod:`repro.apps.quorum` — the Quorum read/write protocol of
  Section IV-B, measured in Fig. 3;
- :mod:`repro.apps.redblue` — Gemini-style RedBlue consistency, the
  two-level baseline the paper argues against.
"""

from repro.apps.backup import FileBackupService, UploadHandle
from repro.apps.kvstore import PutResult, WanKVStore
from repro.apps.quorum import QuorumKV
from repro.apps.redblue import RedBlueError, RedBlueKV, build_redblue_sites

__all__ = [
    "FileBackupService",
    "PutResult",
    "QuorumKV",
    "RedBlueError",
    "RedBlueKV",
    "UploadHandle",
    "WanKVStore",
    "build_redblue_sites",
]
