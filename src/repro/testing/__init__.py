"""Test and experiment doubles — supported, but not the product API.

Everything here exists so experiments can run at paper scale (and tests
can inject faults) without real gigabytes or real disks:

- :class:`SyntheticPayload` — a payload that has a length but no bytes;
  stands in for "N bytes of random data" in trace-scale runs.
- :class:`MemoryFileSystem` — the seeded, fault-injectable in-memory
  filesystem the durability layer and chaos harness write through.

Import from here (``from repro.testing import SyntheticPayload``).
"""

from repro.storage.faultio import MemoryFileSystem
from repro.transport.messages import SyntheticPayload

__all__ = [
    "MemoryFileSystem",
    "SyntheticPayload",
]
