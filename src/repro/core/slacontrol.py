"""Closed-loop SLA control over user-defined consistency (Section VI-D,
automated).

The paper demonstrates *manual* dynamic reconfiguration: an operator
watching tail latency calls ``change_predicate`` to trade consistency
for responsiveness, then walks the predicate back once the WAN recovers.
:class:`SlaController` closes that loop.  Each control tick it measures
two overload signals on one node:

- the send→stable latency percentile over the *last interval only* (a
  :class:`_HistogramWindow` diff over the cumulative
  ``stability_latency.<key>`` histogram — cumulative percentiles hide
  recovery because history never leaves them);
- the age of the oldest local send the frontier has not covered
  (:meth:`~repro.obs.stability.StabilityInstruments.oldest_pending_age`
  — the stall signal a latency histogram cannot give, since a stuck
  frontier stops producing samples exactly when things are worst).

When the SLA is breached it relaxes the watched predicate one rung down
the :func:`relaxation_ladder` (shrinking-quorum ``KTH_MAX`` steps ending
at ``MAX`` — eventual); when measurements have stayed healthy for
:data:`HEALTHY_TICKS` consecutive ticks it restores one rung up.  Both
directions respect a cooldown, so the controller cannot flap faster than
the system can re-equilibrate, and restoration demands margin
(:data:`RESTORE_FRACTION` of the target) — classic hysteresis.

Predicate changes are routed through
:meth:`~repro.core.degradation.MaskSuspectedPolicy.rebase_original`
when a masking degradation policy is live, so a ladder step taken while
a peer is suspected composes with the mask instead of clobbering it.

Every decision is counted (``slacontrol.*`` in ``stats()``) and traced
(``slacontrol.degrade`` / ``slacontrol.restore``), so invariant 14 of
the chaos harness can audit that the controller walked all the way back
to the pristine predicate after load subsided.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.degradation import MaskSuspectedPolicy
from repro.errors import StabilizerError

__all__ = ["SlaController", "relaxation_ladder"]

#: The control cadence: one measurement every this many seconds (the
#: first one this long after construction).
INTERVAL_S = 0.2
#: At most one ladder step per this many seconds.
COOLDOWN_S = 0.6
#: Consecutive healthy ticks a restore needs.
HEALTHY_TICKS = 3
#: Restore only at or below this fraction of the target.
RESTORE_FRACTION = 0.5
#: Below this many window samples the percentile is not trusted (the
#: pending-age signal still is).
MIN_SAMPLES = 5


class _WindowStats:
    """Percentile-capable view over one interval's histogram delta."""

    __slots__ = ("bounds", "counts", "count", "observed_max")

    def __init__(self, bounds, counts, observed_max):
        self.bounds = bounds
        self.counts = counts
        self.count = sum(counts)
        self.observed_max = observed_max

    def percentile(self, q: float) -> float:
        """Interpolated ``q``-th percentile of this window's samples."""
        if not self.count:
            return 0.0
        rank = q / 100.0 * self.count
        cumulative = 0
        hi = 0.0
        for i, bucket_count in enumerate(self.counts):
            lo = self.bounds[i - 1] if i > 0 else 0.0
            if i < len(self.bounds):
                hi = self.bounds[i]
            else:
                # Overflow bucket: no upper edge to interpolate toward —
                # clamp to the cumulative max (an overestimate after
                # recovery — acceptable for a bucket that should be empty
                # when things are healthy).
                hi = max(self.observed_max, self.bounds[-1])
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                if i >= len(self.bounds):
                    return hi
                fraction = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * min(1.0, max(0.0, fraction))
            cumulative += bucket_count
        return hi


class _HistogramWindow:
    """Turn a cumulative histogram into per-interval snapshots by
    diffing ``bucket_counts`` between :meth:`advance` calls."""

    def __init__(self, histogram):
        self.histogram = histogram
        self._last = list(histogram.bucket_counts)

    def advance(self) -> _WindowStats:
        current = list(self.histogram.bucket_counts)
        delta = [c - p for c, p in zip(current, self._last)]
        self._last = current
        observed_max = self.histogram.max
        if observed_max == float("-inf"):
            observed_max = 0.0
        return _WindowStats(self.histogram.bounds, delta, observed_max)


def relaxation_ladder(config) -> List[str]:
    """The default consistency ladder for ``config``, strictest first.

    Each rung waits on one fewer remote replica: ``KTH_MAX(n-1, ...)``
    (all-but-one), down through majority, to ``MAX(...)`` (any single
    remote replica — eventual consistency with one witness).  The rungs
    deliberately exclude ``$MYWNODE``: the completeness rule makes the
    local row cover everything instantly, so including it would let the
    bottom rungs claim stability with zero remote acknowledgment.

    Works unchanged inside a shard view, where ``$ALLWNODES`` is the
    shard's owner set.
    """
    remote = "($ALLWNODES - $MYWNODE)"
    n_remote = config.node_count() - 1
    if n_remote <= 1:
        return [f"MAX({remote})"]
    return [
        f"KTH_MAX({k}, {remote})" for k in range(n_remote - 1, 1, -1)
    ] + [f"MAX({remote})"]


class SlaController:
    """Closed-loop controller for one predicate key on one node.

    Parameters
    ----------
    stabilizer:
        A plain :class:`~repro.core.stabilizer.Stabilizer`, or one stack of
        a :class:`~repro.core.sharding.ShardedStabilizer` (each shard has
        its own engine, tables and latency histograms, so each needs its
        own loop: one controller per item of ``node.stacks()``).
    key:
        The predicate key to control.  Its source at construction time
        is recorded as the *pristine* definition restoration returns to.
    target_p99_s:
        The SLA: windowed p99 send→stable latency (and oldest-pending
        age) must stay at or below this.

    The cadence and hysteresis are module constants: measure every
    :data:`INTERVAL_S`; at most one step per :data:`COOLDOWN_S`; restore
    only after :data:`HEALTHY_TICKS` consecutive ticks at or below
    ``RESTORE_FRACTION * target_p99_s``.

    ``level`` 0 is the pristine source, level ``i`` is ``ladder[i-1]``
    of :func:`relaxation_ladder`.
    """

    def __init__(
        self,
        stabilizer,
        key: str,
        target_p99_s: float,
    ):
        if target_p99_s <= 0:
            raise ValueError("target_p99_s must be > 0")
        self.stabilizer = stabilizer
        self.sim = stabilizer.sim
        self.key = key
        self.target_p99_s = float(target_p99_s)
        self.original_source = stabilizer.engine.predicate(key).source
        self.ladder = relaxation_ladder(stabilizer.config)
        # Reject unregisterable rungs now, not mid-incident.
        for source in self.ladder:
            stabilizer.engine.compiler.compile(source)

        #: 0 = pristine; i = ladder[i-1] is installed.
        self.level = 0
        self._healthy_streak = 0
        self._last_step_at = float("-inf")
        self._closed = False
        self._window = _HistogramWindow(
            stabilizer.registry.histogram(
                f"{stabilizer.stability.prefix}.{key}"
            )
        )

        registry = stabilizer.registry
        registry.gauge("slacontrol.level", fn=lambda: self.level)
        self._c_ticks = registry.counter("slacontrol.ticks")
        self._c_breaches = registry.counter("slacontrol.breaches")
        self._c_degrades = registry.counter("slacontrol.degrade_steps")
        self._c_restores = registry.counter("slacontrol.restore_steps")
        self._g_p99 = registry.gauge("slacontrol.window_p99_s")
        self._g_pending = registry.gauge("slacontrol.oldest_pending_s")
        self._g_p99.set(0.0)
        self._g_pending.set(0.0)

        self._timer = self.sim.call_later(INTERVAL_S, self._tick)

    # ------------------------------------------------------------------ measurement
    def measure(self) -> Dict[str, float]:
        """One interval's signals (also consumed by :meth:`_tick`)."""
        window = self._window.advance()
        p99 = None
        if window.count >= MIN_SAMPLES:
            p99 = window.percentile(99)
        pending_age = self.stabilizer.stability.oldest_pending_age(self.key)
        self._g_p99.set(p99 if p99 is not None else 0.0)
        self._g_pending.set(pending_age)
        return {
            "samples": window.count,
            "p99": p99,
            "pending_age": pending_age,
        }

    def _within(self, m: Dict[str, float], limit: float) -> bool:
        """Both signals at or below ``limit``."""
        return m["pending_age"] <= limit and (m["p99"] is None or m["p99"] <= limit)

    # ------------------------------------------------------------------ control loop
    def _tick(self) -> None:
        if self._closed:
            return
        self._timer = self.sim.call_later(INTERVAL_S, self._tick)
        self._c_ticks.inc()
        m = self.measure()
        now = self.sim.now
        in_cooldown = now - self._last_step_at < COOLDOWN_S
        if not self._within(m, self.target_p99_s):
            self._c_breaches.inc()
            self._healthy_streak = 0
            if self.level < len(self.ladder) and not in_cooldown:
                self._step(+1, m)
        elif self._within(m, RESTORE_FRACTION * self.target_p99_s):
            self._healthy_streak += 1
            if (
                self.level > 0
                and self._healthy_streak >= HEALTHY_TICKS
                and not in_cooldown
            ):
                self._step(-1, m)
                self._healthy_streak = 0
        else:
            # Neither breached nor comfortably healthy: hold position,
            # and make restoration re-earn its streak.
            self._healthy_streak = 0

    def _step(self, direction: int, m: Dict[str, float]) -> None:
        old_level = self.level
        self.level += direction
        self._last_step_at = self.sim.now
        source = (
            self.original_source
            if self.level == 0
            else self.ladder[self.level - 1]
        )
        policy = self._masking_policy()
        install = source
        if policy is not None:
            install = policy.rebase_original(self.key, source)
        try:
            self.stabilizer.change_predicate(self.key, install)
        except StabilizerError:
            # The rung does not compile against the live view (e.g. a
            # mask emptied its set).  Back out the level change; the next
            # tick retries with fresh state.
            self.level = old_level
            return
        if direction > 0:
            self._c_degrades.inc()
            etype = "slacontrol.degrade"
        else:
            self._c_restores.inc()
            etype = "slacontrol.restore"
        tracer = self.stabilizer.tracer
        if tracer.enabled:
            tracer.emit(
                self.stabilizer.name,
                etype,
                key=self.key,
                level=self.level,
                source=source,
                p99=m["p99"],
                pending_age=round(m["pending_age"], 6),
            )

    def _masking_policy(self) -> Optional[MaskSuspectedPolicy]:
        policy = self.stabilizer.degradation_policy
        return policy if isinstance(policy, MaskSuspectedPolicy) else None

    # ------------------------------------------------------------------ inspection
    def restored(self) -> bool:
        """True when the controller is back at level 0 *and* the engine
        holds the pristine source (modulo any still-active mask) — what
        chaos invariant 14 checks after load subsides."""
        if self.level != 0:
            return False
        current = self.stabilizer.engine.predicate(self.key).source
        if current == self.original_source:
            return True
        policy = self._masking_policy()
        return (
            policy is not None
            and bool(policy.excluded_nodes())
            and self.key in policy.adjusted_keys()
        )

    def stats(self) -> Dict[str, float]:
        return {
            "slacontrol.level": self.level,
            "slacontrol.ticks": self._c_ticks.value,
            "slacontrol.breaches": self._c_breaches.value,
            "slacontrol.degrade_steps": self._c_degrades.value,
            "slacontrol.restore_steps": self._c_restores.value,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
