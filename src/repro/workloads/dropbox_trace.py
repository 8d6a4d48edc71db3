"""Synthetic Dropbox sync trace matching the paper's Fig. 4.

The original is a slice of the IMC'14 cloud-storage trace [33]: user sync
requests "from 16:40:45 to 16:57:08 in 2012-09-20" — a 983-second window
totalling 3.87 GB, which Stabilizer's 8 KB splitter turns into 517,294
messages.  Fig. 4 shows the defining feature: a few huge files (over
100 MB) arriving at distinct moments, which create the three latency
spikes of Fig. 5.

The synthesizer reproduces exactly those published properties:

- window length and total volume (scaled by ``scale``);
- three huge files at fixed fractions of the window;
- a heavy-tailed (log-normal) body of small files filling the remaining
  volume, with bursty arrivals;
- a deterministic seed, so every run sees the same trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ConfigError
from repro.sim.rng import RngRegistry
from repro.transport.chunker import CHUNK_BYTES
from repro.workloads.filesizes import bounded_lognormal

GIB = 1024**3


@dataclass(frozen=True)
class TraceRecord:
    """One sync request: a file of ``size_bytes`` submitted at ``time_s``."""

    time_s: float
    name: str
    size_bytes: int


# The synthesizer's shape, matching the paper's trace.
#: The window, 16:40:45 -> 16:57:08.
DURATION_S = 983.0
TOTAL_BYTES = int(3.87 * GIB)
#: The three huge files and when they arrive, as fractions of the window.
HUGE_SIZES = (int(150e6), int(132e6), int(118e6))
HUGE_TIMES_FRAC = (0.22, 0.52, 0.80)
#: The log-normal body of small files.
MEDIAN_SMALL_BYTES = 48 * 1024
SIGMA = 2.1
CAP_SMALL_BYTES = 24e6
#: The fraction of small files arriving in bursts.
BURSTINESS = 0.6


def synthesize_trace(scale: float = 1.0, seed: int = 7) -> List[TraceRecord]:
    """Generate the trace; see module docstring.

    ``scale`` shrinks the window and every volume (huge files included)
    proportionally, so the offered load in bits/second — what determines
    the queueing behaviour against the fixed link bandwidths — is
    invariant; ``scale=1`` is the full published trace.
    """
    if not 0 < scale <= 1:
        raise ConfigError(f"scale must be in (0, 1]: {scale}")
    rng = RngRegistry(seed).stream("dropbox-trace")
    duration = DURATION_S * scale
    target_bytes = int(TOTAL_BYTES * scale)

    records: List[TraceRecord] = []
    remaining = target_bytes
    for index, (size, frac) in enumerate(zip(HUGE_SIZES, HUGE_TIMES_FRAC)):
        size = int(size * scale)
        records.append(
            TraceRecord(
                time_s=frac * duration,
                name=f"huge-{index}",
                size_bytes=size,
            )
        )
        remaining -= size

    # Burst centres: small files cluster around them (and around the huge
    # uploads, as Fig. 4 shows dense request periods).
    burst_centres = [frac * duration for frac in HUGE_TIMES_FRAC]
    burst_centres += [rng.uniform(0, duration) for _ in range(5)]
    burst_width = max(duration * 0.01, 0.5)

    index = 0
    while remaining > 0:
        size = bounded_lognormal(
            rng,
            median_bytes=MEDIAN_SMALL_BYTES,
            sigma=SIGMA,
            cap_bytes=CAP_SMALL_BYTES,
        )
        size = min(size, remaining)  # the last file tops the volume off
        if rng.random() < BURSTINESS:
            centre = rng.choice(burst_centres)
            time = min(max(rng.gauss(centre, burst_width), 0.0), duration)
        else:
            time = rng.uniform(0, duration)
        records.append(
            TraceRecord(time_s=time, name=f"file-{index}", size_bytes=size)
        )
        remaining -= size
        index += 1

    records.sort(key=lambda r: r.time_s)
    return records


def message_count(records: Sequence[TraceRecord], chunk_bytes: int = CHUNK_BYTES) -> int:
    """Messages after the 8 KB split (the paper reports 517,294)."""
    return sum(
        max(1, math.ceil(r.size_bytes / chunk_bytes)) for r in records
    )


def trace_stats(records: Sequence[TraceRecord]) -> Dict[str, float]:
    """Summary used by the Fig. 4 benchmark and sanity tests."""
    if not records:
        return {"files": 0, "bytes": 0, "messages": 0, "duration_s": 0.0}
    return {
        "files": len(records),
        "bytes": sum(r.size_bytes for r in records),
        "messages": message_count(records),
        "duration_s": records[-1].time_s - records[0].time_s,
        "largest_bytes": max(r.size_bytes for r in records),
    }
