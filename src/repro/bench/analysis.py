"""Series analysis used by the experiments' findings.

Small, well-tested building blocks for the questions the evaluation keeps
asking: where are the load spikes (Fig. 5), where does a latency curve's
knee sit (Fig. 7), and how do two series compare window by window
(Fig. 8).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.sim.monitor import Series


def spike_count(
    series: Series, enter_frac: float = 0.45, exit_frac: float = 0.3
) -> int:
    """Count excursions above ``enter_frac`` of the maximum, with
    hysteresis: a spike ends only when the series dips below
    ``exit_frac`` of the maximum (shoulder noise is not double-counted).
    """
    if not 0 < exit_frac <= enter_frac <= 1:
        raise ValueError("need 0 < exit_frac <= enter_frac <= 1")
    top = series.max()
    if not series or top <= 0 or math.isnan(top):
        return 0
    spikes = 0
    inside = False
    for _x, y in series:
        if y > top * enter_frac and not inside:
            spikes += 1
            inside = True
        elif y <= top * exit_frac and inside:
            inside = False
    return spikes


def saturation_knee(
    rates: Sequence[float], latencies: Sequence[float], factor: float = 2.0
) -> Optional[float]:
    """The first rate where latency exceeds ``factor`` times the floor.

    The Fig. 7 question: where does queueing take over?  The floor is the
    lowest-rate latency.  Returns None if the curve never takes off.
    """
    if len(rates) != len(latencies) or not rates:
        raise ValueError("rates and latencies must be equal-length, non-empty")
    floor = latencies[0]
    if floor <= 0 or math.isnan(floor):
        raise ValueError("latency floor must be positive")
    for rate, latency in zip(rates, latencies):
        if latency > floor * factor:
            return rate
    return None


def windowed_means(series: Series, width: float) -> Dict[float, float]:
    """Mean per fixed-width time window, keyed by window start."""
    if width <= 0:
        raise ValueError("window width must be positive")
    out: Dict[float, float] = {}
    if not series:
        return out
    end = series.times[-1]
    start = 0.0
    while start <= end:
        value = series.window_mean(start, start + width)
        if not math.isnan(value):
            out[start] = value
        start += width
    return out


def alternation_score(
    series: Series, width: float, phase_offset: float = 0.0
) -> float:
    """How strongly windowed means alternate high/low (Fig. 8's toggling).

    Returns mean(even windows) - mean(odd windows); positive when the
    even-indexed windows (the "subscribed" phases, given the offset) are
    slower.  Zero-ish for a flat series.
    """
    means = windowed_means(series, width)
    even, odd = [], []
    for start, value in means.items():
        index = round((start - phase_offset) / width)
        (even if index % 2 == 0 else odd).append(value)
    if not even or not odd:
        return 0.0
    return sum(even) / len(even) - sum(odd) / len(odd)


def instruments_agree(
    pairs: Iterable[Tuple[str, Series, Mapping[str, float]]]
) -> Tuple[bool, str]:
    """A finding's check: each ``(label, series, summary)`` holds a probe's
    series and the summary of the same delays from the sender's built-in
    stability instruments (send() timestamps + frontier-advance hook).
    Sample counts must agree exactly; the exact histogram mean within 1%."""
    worst = 0.0
    for label, series, summary in pairs:
        if summary["count"] != len(series):
            return False, f"{label}: {summary['count']:.0f} vs {len(series)} samples"
        worst = max(worst, abs(summary["mean"] - series.mean()) / series.mean())
    return worst <= 0.01, f"same counts, means within {worst:.3%}"
