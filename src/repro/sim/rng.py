"""Named, independent random streams derived from one root seed.

Simulations need randomness in many places (per-link jitter, workload
inter-arrivals, GC pause timing).  Drawing them all from one generator makes
results depend on call *order*, which changes whenever unrelated code is
edited.  :class:`RngRegistry` instead derives an independent
``random.Random`` per name, so adding a new consumer never perturbs the
streams existing consumers see.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngRegistry:
    """Hands out one deterministic ``random.Random`` per stream name."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The same (seed, name) pair always yields the same sequence.
        """
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng
