"""Related-work consistency front-ends, expressed over Stabilizer.

The paper positions Stabilizer against systems that *select among fixed
consistency options* (Section II-B): Pileus lets clients rank
(consistency, latency) pairs in an SLA; WheelFS embeds consistency cues
in file paths.  Both are strictly less expressive than stability-frontier
predicates — so both can be *implemented on top of* Stabilizer, which
this module does:

- :class:`ConsistencySLA` — a Pileus-style ranked list of sub-SLAs
  (predicate, latency bound, utility).  ``acquire(seq)`` resolves to the
  highest-utility sub-SLA whose predicate covers the message within its
  latency bound, degrading gracefully down the list; the last sub-SLA is
  the unbounded fallback (Pileus's "eventual" floor).
- :func:`parse_path_cue` — a WheelFS-style cue: a path component such as
  ``/.MajorityRegions/`` names the predicate governing the file.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.core.stabilizer import Stabilizer
from repro.errors import ConfigError
from repro.sim.events import Event


class SubSla(NamedTuple):
    """One (consistency, latency, utility) row of a Pileus-style SLA."""

    name: str
    predicate_key: str
    latency_bound_s: Optional[float]  # None = unbounded fallback
    utility: float


class SlaOutcome(NamedTuple):
    """What ``acquire`` resolves to."""

    sub_sla: SubSla
    latency_s: float
    seq: int


class ConsistencySLA:
    """See module docstring.  One instance per (Stabilizer, SLA) pair."""

    def __init__(self, stabilizer: Stabilizer, sub_slas: List[SubSla]):
        if not sub_slas:
            raise ConfigError("an SLA needs at least one sub-SLA")
        utilities = [s.utility for s in sub_slas]
        if utilities != sorted(utilities, reverse=True):
            raise ConfigError("sub-SLAs must be ordered by descending utility")
        if sub_slas[-1].latency_bound_s is not None:
            raise ConfigError(
                "the last sub-SLA is the fallback and must be unbounded "
                "(latency_bound_s=None)"
            )
        for sub in sub_slas[:-1]:
            if sub.latency_bound_s is None or sub.latency_bound_s <= 0:
                raise ConfigError(
                    f"sub-SLA {sub.name!r} needs a positive latency bound"
                )
        for sub in sub_slas:
            stabilizer.engine.predicate(sub.predicate_key)  # must exist
        self.stabilizer = stabilizer
        self.sim = stabilizer.sim
        self.sub_slas = list(sub_slas)
        self.outcomes: List[SlaOutcome] = []

    def acquire(self, seq: int, origin: Optional[str] = None) -> Event:
        """Resolve the best attainable sub-SLA for message ``seq``.

        Returns an event yielding an :class:`SlaOutcome`.  Semantics: the
        sub-SLAs are tried in utility order; each gets until its latency
        bound (measured from the ``acquire`` call) to have its predicate
        cover ``seq``; on expiry the next sub-SLA takes over (an
        already-expired bound degrades immediately).  The final sub-SLA
        waits unboundedly.
        """
        event = self.sim.event()
        started = self.sim.now
        state = {"index": 0, "done": False, "waiters": [], "timers": []}

        def cancel_pending() -> None:
            # GC: a degraded-past sub-SLA must not leave its waiter
            # sitting in the per-key heap (nor its deadline timer in the
            # wheel) until the frontier happens to catch up — under
            # overload that is exactly when frontiers stall and stale
            # entries would pile up unboundedly.
            engine = self.stabilizer.engine
            for handle in state["waiters"]:
                engine.cancel_waiter(handle)
            state["waiters"].clear()
            for timer in state["timers"]:
                timer.cancel()
            state["timers"].clear()

        def resolve(sub: SubSla) -> None:
            if state["done"]:
                return
            state["done"] = True
            cancel_pending()
            outcome = SlaOutcome(sub, self.sim.now - started, seq)
            self.outcomes.append(outcome)
            event.succeed(outcome)

        def try_level() -> None:
            if state["done"]:
                return
            index = state["index"]
            sub = self.sub_slas[index]
            frontier = self.stabilizer.get_stability_frontier(
                sub.predicate_key, origin
            )
            if frontier >= seq:
                resolve(sub)
                return
            deadline = (
                None
                if sub.latency_bound_s is None
                else started + sub.latency_bound_s
            )
            if deadline is not None and self.sim.now >= deadline:
                state["index"] += 1
                try_level()  # degrade immediately
                return
            # Wake on whichever comes first: satisfaction or the deadline.
            token = index

            def on_satisfied() -> None:
                if not state["done"] and state["index"] == token:
                    resolve(sub)

            handle = self.stabilizer.engine.add_waiter(
                origin or self.stabilizer.name,
                seq,
                on_satisfied,
                key=sub.predicate_key,
            )
            if handle is not None:
                state["waiters"].append(handle)
            if deadline is not None:

                def on_deadline() -> None:
                    if not state["done"] and state["index"] == token:
                        state["index"] += 1
                        cancel_pending()  # this level's waiter is stale now
                        try_level()

                state["timers"].append(
                    self.sim.call_later(deadline - self.sim.now, on_deadline)
                )

        try_level()
        return event

    def mean_utility(self, since: int = 0) -> float:
        """Average delivered utility over resolved acquires — all of
        them by default, or only ``outcomes[since:]`` so a caller can
        window the signal by remembering ``len(outcomes)``."""
        outcomes = self.outcomes[since:]
        if not outcomes:
            return 0.0
        return sum(o.sub_sla.utility for o in outcomes) / len(outcomes)


# ---------------------------------------------------------------------------
# WheelFS-style path cues.
# ---------------------------------------------------------------------------


def parse_path_cue(
    path: str, default_predicate: str = "AllWNodes"
) -> Tuple[str, str]:
    """Split a WheelFS-style path into (clean path, predicate key).

    A component of the form ``.PredicateName`` names the consistency
    model, e.g. ``backups/.MajorityRegions/db.dump`` uses
    ``MajorityRegions`` for ``backups/db.dump``.  At most one cue is
    allowed; none means ``default_predicate``.
    """
    parts = path.split("/")
    cues = [p for p in parts if p.startswith(".") and len(p) > 1]
    if len(cues) > 1:
        raise ConfigError(f"multiple consistency cues in path {path!r}")
    cleaned = "/".join(p for p in parts if not (p.startswith(".") and len(p) > 1))
    if not cleaned or cleaned.endswith("/"):
        raise ConfigError(f"path {path!r} has no file component")
    predicate = cues[0][1:] if cues else default_predicate
    return cleaned, predicate
