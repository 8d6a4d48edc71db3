"""Open-loop senders for the pub/sub experiments (Section VI-C/D).

"A client can publish messages at a range of frequencies" — these helpers
spawn a simulation process that invokes a callback at a constant or
Poisson rate, independent of how fast the system drains (open loop, so
overload shows up as queueing delay exactly as in the paper's Fig. 7).
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.sim.kernel import Simulator
from repro.sim.process import Process

SendFn = Callable[[int], None]


def constant_rate(
    sim: Simulator, rate_per_s: float, count: int, send: SendFn
) -> Process:
    """Send ``count`` messages at exactly ``rate_per_s`` (first at t=now)."""
    if rate_per_s <= 0 or count <= 0:
        raise ConfigError("rate and count must be positive")
    interval = 1.0 / rate_per_s

    def runner():
        for index in range(count):
            send(index)
            if index != count - 1:
                yield interval

    process = sim.spawn(runner(), name=f"constant-rate-{rate_per_s}")
    process.add_callback(lambda _e: None)  # watched: surface crashes
    return process


def poisson_rate(
    sim: Simulator,
    rate_per_s: float,
    count: int,
    send: SendFn,
    rng: Optional[random.Random] = None,
) -> Process:
    """Send ``count`` messages with exponential inter-arrivals."""
    if rate_per_s <= 0 or count <= 0:
        raise ConfigError("rate and count must be positive")
    rng = rng or random.Random(0)

    def runner():
        for index in range(count):
            send(index)
            if index != count - 1:
                yield rng.expovariate(rate_per_s)

    process = sim.spawn(runner(), name=f"poisson-rate-{rate_per_s}")
    process.add_callback(lambda _e: None)
    return process


class FlashCrowdShape:
    """The rate profile of a flash crowd: trapezoid ramp to a peak.

    ``rate_at(t)`` is ``base_rate`` before ``t0``, ramps linearly to
    ``peak_rate`` over ``ramp_s``, holds for ``hold_s``, decays linearly
    back over ``decay_s``, and is ``base_rate`` again afterwards.  The
    shape is shared between the chaos scheduler (which flips a region's
    sender into the profile) and the overload benchmark (which reports
    SLA timelines against it), so both stress the system with the *same*
    surge geometry.
    """

    def __init__(
        self,
        base_rate: float,
        peak_rate: float,
        t0: float = 0.0,
        ramp_s: float = 1.0,
        hold_s: float = 2.0,
        decay_s: float = 1.0,
    ):
        if base_rate <= 0 or peak_rate < base_rate:
            raise ConfigError("need 0 < base_rate <= peak_rate")
        if ramp_s < 0 or hold_s < 0 or decay_s < 0:
            raise ConfigError("ramp/hold/decay durations must be >= 0")
        self.base_rate = base_rate
        self.peak_rate = peak_rate
        self.t0 = t0
        self.ramp_s = ramp_s
        self.hold_s = hold_s
        self.decay_s = decay_s

    @property
    def end(self) -> float:
        return self.t0 + self.ramp_s + self.hold_s + self.decay_s

    def rate_at(self, t: float) -> float:
        if t < self.t0 or t >= self.end:
            return self.base_rate
        dt = t - self.t0
        if dt < self.ramp_s:
            frac = dt / self.ramp_s if self.ramp_s else 1.0
            return self.base_rate + (self.peak_rate - self.base_rate) * frac
        dt -= self.ramp_s
        if dt < self.hold_s:
            return self.peak_rate
        dt -= self.hold_s
        frac = dt / self.decay_s if self.decay_s else 1.0
        return self.peak_rate - (self.peak_rate - self.base_rate) * frac

