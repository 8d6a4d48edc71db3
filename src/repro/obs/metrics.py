"""Zero-dependency metrics primitives: counters, gauges, histograms.

The registry replaces the ad-hoc dicts behind ``Stabilizer.stats()``.
Everything here is plain Python over plain numbers so it is cheap enough
to stay on by default: counters are attribute increments, gauges are
either stored floats or callables sampled at collection time, and
histograms are fixed-bucket (exponential bounds) with exact ``count``/
``sum``/``min``/``max`` plus interpolated percentiles — the same design
Prometheus client libraries use, minus the wire format.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
]

#: Default bucket upper bounds (seconds) for latency histograms: a
#: 1-2-5 ladder from 1ms to 2min, wide enough for WAN stability delays
#: and fine enough that interpolated p50/p99 stay useful.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value: either stored or sampled from a callable."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = value
        self._fn = None

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value


class Histogram:
    """Fixed-bucket histogram with exact moments and estimated quantiles.

    ``count``/``sum``/``min``/``max`` are exact; percentiles are linearly
    interpolated within the bucket that holds the requested rank (clamped
    to the observed min/max so single-bucket distributions don't smear).
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(buckets or DEFAULT_LATENCY_BUCKETS_S)
        # One overflow bucket past the last bound.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    def observe_n(self, value: float, count: int) -> None:
        """:meth:`observe` ``value`` ``count`` times, in one call: the sum
        still takes ``value`` once per sample, so every field ends
        bit-identical to the per-sample calls."""
        total = self.sum
        for _ in range(count):
            total += value
        self.sum = total
        self.count += count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 100])."""
        if not self.count:
            return 0.0
        rank = q / 100.0 * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                if i >= len(self.bounds):
                    # Overflow bucket: there is no upper bound to
                    # interpolate toward, and smearing from the last
                    # bucket edge *under*-reports the tail — clamp to
                    # the max observed value instead.
                    return self.max
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                # Clamp to observed extremes: exact at the tails, and a
                # single-bucket histogram reports a point, not a smear.
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                fraction = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * min(1.0, max(0.0, fraction))
            cumulative += bucket_count
        return self.max

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named get-or-create store for counters, gauges, and histograms.

    ``collect()`` produces the flat numeric dict behind
    ``Stabilizer.stats()``; ``snapshot()`` adds structured histogram
    summaries.  Collector callables let existing plane objects keep
    their raw attribute counters (which tests poke directly) while the
    registry assembles the external view.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Callable[[Dict[str, float]], None]] = []

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        try:
            g = self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge(name, fn)
        return g

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(name, buckets)
            return h

    def histograms(self) -> Iterable[Histogram]:
        return self._histograms.values()

    def add_collector(self, fn: Callable[[Dict[str, float]], None]) -> None:
        """Register a callable that fills a dict with metric values."""
        self._collectors.append(fn)

    def collect(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for fn in self._collectors:
            fn(out)
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        return out

    def snapshot(self) -> Dict[str, object]:
        return {
            "metrics": self.collect(),
            "histograms": {
                name: hist.summary() for name, hist in self._histograms.items()
            },
        }
