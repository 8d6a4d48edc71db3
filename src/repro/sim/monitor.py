"""Measurement collectors used by experiments and benchmarks.

Two collectors cover everything the paper reports:

- :class:`Series` — (time, value) pairs, e.g. per-message latency over a run;
- :class:`Histogram` — a value distribution with percentile queries.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


class Series:
    """An append-only sequence of (time, value) samples."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def mean(self) -> float:
        if not self.values:
            return math.nan
        return sum(self.values) / len(self.values)

    def min(self) -> float:
        return min(self.values) if self.values else math.nan

    def max(self) -> float:
        return max(self.values) if self.values else math.nan

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100]."""
        return percentile(self.values, q)

    def window_mean(self, start: float, end: float) -> float:
        """Mean of samples with start <= time < end."""
        selected = [v for t, v in self if start <= t < end]
        if not selected:
            return math.nan
        return sum(selected) / len(selected)

    def downsample(self, buckets: int) -> "Series":
        """Average into ``buckets`` equal-width time buckets (for plotting)."""
        out = Series(self.name)
        if not self.times or buckets <= 0:
            return out
        t0, t1 = self.times[0], self.times[-1]
        if t1 <= t0:
            out.record(t0, self.mean())
            return out
        width = (t1 - t0) / buckets
        sums = [0.0] * buckets
        counts = [0] * buckets
        for t, v in self:
            idx = min(int((t - t0) / width), buckets - 1)
            sums[idx] += v
            counts[idx] += 1
        for i in range(buckets):
            if counts[i]:
                out.record(t0 + (i + 0.5) * width, sums[i] / counts[i])
        return out

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(len(self)),
            "mean": self.mean(),
            "min": self.min(),
            "max": self.max(),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }

    def to_csv(self, path, header: Tuple[str, str] = ("time", "value")) -> None:
        """Write the samples as a two-column CSV (for external plotting)."""
        from pathlib import Path

        lines = [f"{header[0]},{header[1]}"]
        lines.extend(f"{t!r},{v!r}" for t, v in self)
        Path(path).write_text("\n".join(lines) + "\n")

class Histogram:
    """A value distribution; keeps raw samples (fine at our scales)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []

    def record(self, value: float) -> None:
        self.samples.append(value)

    def __len__(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        if not self.samples:
            return math.nan
        return sum(self.samples) / len(self.samples)

    def stdev(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    def percentile(self, q: float) -> float:
        return percentile(self.samples, q)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(len(self)),
            "mean": self.mean(),
            "stdev": self.stdev(),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": max(self.samples) if self.samples else math.nan,
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (q in [0, 100])."""
    if not values:
        return math.nan
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return math.nan
    return sum(values) / len(values)
