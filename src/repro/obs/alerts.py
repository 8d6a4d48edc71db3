"""Multi-window SLO burn-rate alerting over the stabilization surface.

An SLO here is "``target`` of observations stay at or under
``threshold``" — e.g. *99% of ``all_remote`` sends stabilize within
150ms*, or *the ``frontier_lag`` gauge stays under 64 sequences 99.9%
of the time*.  The alerter follows the standard multi-window burn-rate
recipe: the *burn rate* is the observed error ratio divided by the
error budget (``1 - target``), and an alert fires only when **both** a
short and a long window burn faster than the window pair's factor —
the short window makes alerts fast to fire and fast to resolve, the
long window keeps one unlucky send from paging anyone.

Wiring: :meth:`SloAlerter.observe` is cheap (one deque append per
window pair), so it hangs off :class:`~repro.obs.stability.
StabilityInstruments`' per-sample callback and off periodic frontier-
lag gauge sampling.  Evaluation happens on each observation (and on
explicit :meth:`evaluate` calls); transitions emit ``alert.fire`` /
``alert.resolve`` into the flight-recorder ring so post-hoc analysis
sees alerts on the same timeline as the traffic that caused them.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import NULL_TRACER

__all__ = ["SloRule", "SloAlerter", "Alert", "DEFAULT_WINDOWS"]

#: (short_s, long_s, burn_factor) pairs, scaled for simulated runs that
#: last seconds-to-minutes of virtual time (the classic SRE values are
#: 5m/1h @14.4 and 30m/6h @6 — same shape, hour-scale windows).
DEFAULT_WINDOWS: Tuple[Tuple[float, float, float], ...] = (
    (1.0, 10.0, 14.4),
    (5.0, 30.0, 6.0),
)
#: Both windows need this many observations before a rule can fire — one
#: unlucky first sample is not a 100% error ratio.
MIN_SAMPLES = 5


class SloRule:
    """One SLO: observations of ``series`` should be ≤ ``threshold``."""

    __slots__ = (
        "name", "series", "threshold", "target", "windows",
    )

    def __init__(
        self,
        name: str,
        series: str,
        threshold: float,
        target: float = 0.99,
        windows: Sequence[Tuple[float, float, float]] = DEFAULT_WINDOWS,
    ):
        if not 0.0 < target < 1.0:
            raise ValueError("target must be in (0, 1)")
        self.name = name
        #: Which observation stream feeds this rule — e.g.
        #: ``stable.all_remote`` or ``frontier_lag``.
        self.series = series
        self.threshold = threshold
        self.target = target
        self.windows = tuple(windows)

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target


class Alert:
    """A fired (and possibly resolved) burn-rate alert."""

    __slots__ = (
        "rule", "window_s", "fired_at", "resolved_at",
        "burn_short", "burn_long",
    )

    def __init__(self, rule, window_s, fired_at, burn_short, burn_long):
        self.rule = rule
        self.window_s = window_s  # (short_s, long_s)
        self.fired_at = fired_at
        self.resolved_at: Optional[float] = None
        self.burn_short = burn_short
        self.burn_long = burn_long

    @property
    def active(self) -> bool:
        return self.resolved_at is None

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "window_s": list(self.window_s),
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
        }


class _Window:
    __slots__ = ("span_s", "events", "errors")

    def __init__(self, span_s: float):
        self.span_s = span_s
        self.events: deque = deque()  # (ts, is_error)
        self.errors = 0

    def add(self, ts: float, is_error: bool) -> None:
        self.events.append((ts, is_error))
        if is_error:
            self.errors += 1

    def prune(self, now: float) -> None:
        horizon = now - self.span_s
        events = self.events
        while events and events[0][0] < horizon:
            _ts, was_error = events.popleft()
            if was_error:
                self.errors -= 1

    def error_ratio(self) -> float:
        return self.errors / len(self.events) if self.events else 0.0


class SloAlerter:
    """Evaluates :class:`SloRule`\\ s over live observations.

    One instance per node; ``clock`` is the virtual clock.  Alert state
    transitions land in ``history`` and emit ``alert.fire`` /
    ``alert.resolve`` tracer events.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        rules: Sequence[SloRule],
        tracer=None,
        node: str = "",
    ):
        self.clock = clock
        self.rules = list(rules)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.node = node
        self.fired = 0
        self.resolved = 0
        self.history: List[Alert] = []
        # rule name -> [( (short,long,factor), _Window(short), _Window(long) )]
        self._windows: Dict[str, List[Tuple]] = {}
        self._by_series: Dict[str, List[SloRule]] = {}
        self._active: Dict[Tuple[str, Tuple[float, float]], Alert] = {}
        for rule in self.rules:
            self._by_series.setdefault(rule.series, []).append(rule)
            self._windows[rule.name] = [
                (pair, _Window(pair[0]), _Window(pair[1]))
                for pair in rule.windows
            ]

    # ------------------------------------------------------------- feeds
    def observe(self, series: str, value: float) -> None:
        """Feed one observation of ``series`` (a latency sample, a gauge
        reading); evaluates every rule bound to the series."""
        rules = self._by_series.get(series)
        if not rules:
            return
        now = self.clock()
        for rule in rules:
            is_error = value > rule.threshold
            for _pair, short, long_ in self._windows[rule.name]:
                short.add(now, is_error)
                long_.add(now, is_error)
            self._evaluate_rule(rule, now)

    def evaluate(self) -> None:
        """Re-evaluate every rule at the current time (prunes windows;
        lets alerts resolve during quiet periods)."""
        now = self.clock()
        for rule in self.rules:
            self._evaluate_rule(rule, now)

    # ------------------------------------------------------------- state
    def active(self) -> List[Alert]:
        return [a for a in self._active.values() if a.active]

    def stats(self) -> Dict[str, float]:
        return {
            "alerts.fired": float(self.fired),
            "alerts.resolved": float(self.resolved),
            "alerts.active": float(len(self._active)),
        }

    # ---------------------------------------------------------- internal
    def _evaluate_rule(self, rule: SloRule, now: float) -> None:
        budget = rule.error_budget
        for pair, short, long_ in self._windows[rule.name]:
            short.prune(now)
            long_.prune(now)
            burn_short = short.error_ratio() / budget
            burn_long = long_.error_ratio() / budget
            factor = pair[2]
            key = (rule.name, (pair[0], pair[1]))
            alert = self._active.get(key)
            # Fire requires data in *both* windows burning past the
            # factor; resolve when the short window cools (standard
            # fast-resolve behaviour).
            should_fire = (
                len(short.events) >= MIN_SAMPLES
                and len(long_.events) >= MIN_SAMPLES
                and burn_short >= factor
                and burn_long >= factor
            )
            if alert is None and should_fire:
                alert = Alert(rule.name, (pair[0], pair[1]), now,
                              burn_short, burn_long)
                self._active[key] = alert
                self.history.append(alert)
                self.fired += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        self.node, "alert.fire",
                        rule=rule.name, series=rule.series,
                        window_s=pair[1],
                        burn_short=round(burn_short, 3),
                        burn_long=round(burn_long, 3),
                    )
            elif alert is not None and burn_short < factor:
                alert.resolved_at = now
                del self._active[key]
                self.resolved += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        self.node, "alert.resolve",
                        rule=rule.name, series=rule.series,
                        window_s=pair[1],
                        burn_short=round(burn_short, 3),
                    )
            elif alert is not None:
                alert.burn_short = burn_short
                alert.burn_long = burn_long
