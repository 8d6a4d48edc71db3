"""A wall-clock-paced event scheduler with the simulator's interface.

:class:`RealtimeScheduler` subclasses :class:`~repro.sim.kernel.Simulator`
so every component written against the simulator — links, transports,
Stabilizer, Paxos, brokers — runs unmodified; the only change is that
``run()`` waits for real time to catch up with each event's timestamp
instead of warping the clock.  A ``speedup`` factor compresses or dilates
real time (handy in tests: ``speedup=100`` runs a 5-second deployment in
50 ms of wall time).

Threads outside the loop (e.g. a client driving a deployment) submit work
with :meth:`post`, which is safe to call concurrently and wakes the loop.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class RealtimeScheduler(Simulator):
    """See module docstring."""

    def __init__(self, speedup: float = 1.0):
        super().__init__()
        if speedup <= 0:
            raise SimulationError("speedup must be positive")
        self.speedup = speedup
        self._wakeup = threading.Condition()
        self._stopped = False
        self._started_wall: Optional[float] = None
        self._loop_thread: Optional[threading.Thread] = None

    # -- thread-safe injection ----------------------------------------------
    def post(self, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current virtual time, from any
        thread, waking the loop if it is sleeping.

        "Current" means wall-clock virtual time once the loop has started:
        an idle loop's ``now`` lags the wall, and work posted during idle
        must not execute in that past (in-flight delays would collapse).
        """
        with self._wakeup:
            at = self.now
            if self._started_wall is not None:
                at = max(at, self._virtual_elapsed())
            self.call_at(at, fn, *args)
            self._wakeup.notify_all()

    def stop(self) -> None:
        """Ask a running loop to exit after the current event."""
        with self._wakeup:
            self._stopped = True
            self._wakeup.notify_all()

    # -- pacing ---------------------------------------------------------------
    def _virtual_elapsed(self) -> float:
        assert self._started_wall is not None
        return (time.monotonic() - self._started_wall) * self.speedup

    def run(self, until: Optional[float] = None) -> float:  # type: ignore[override]
        """Run, sleeping so each event fires at its wall-clock moment.

        Unlike the simulator, an empty heap does not end the run (a
        deployment idles until more work is posted); the loop exits at
        ``until`` virtual seconds or on :meth:`stop`.
        """
        if until is None and not self._stopped:
            raise SimulationError(
                "a realtime run needs an `until` horizon or a stop() caller"
            )
        self._started_wall = time.monotonic() - self.now / self.speedup
        while True:
            with self._wakeup:
                if self._stopped:
                    self._stopped = False
                    break
                next_time = self._next_time()
                # An idle clock tracks the wall (capped so no event or the
                # horizon is ever skipped): readers of `now` during idle
                # periods must see wall-clock virtual time.
                cap = self._virtual_elapsed()
                if next_time is not None:
                    cap = min(cap, next_time)
                if until is not None:
                    cap = min(cap, until)
                if cap > self.now:
                    self.now = cap
                if until is not None and (next_time is None or next_time > until):
                    if self._virtual_elapsed() >= until:
                        self.now = max(self.now, until)
                        break
                    # Idle until the horizon (or a post()).
                    self._sleep_until(until)
                    continue
                if next_time is not None and next_time > self._virtual_elapsed():
                    self._sleep_until(next_time)
                    continue
            # Event due now: execute outside the lock (handlers may post).
            self.step()
        return self.now

    def run_in_thread(self, until: Optional[float] = None) -> threading.Thread:
        """Run the loop on a daemon thread; join via the returned handle."""
        thread = threading.Thread(
            target=self.run, kwargs={"until": until}, daemon=True
        )
        self._loop_thread = thread
        thread.start()
        return thread

    def _sleep_until(self, virtual_time: float) -> None:
        """Wait (interruptibly) until wall time reaches ``virtual_time``.

        Must be called with the wakeup lock held.
        """
        delay = (virtual_time - self._virtual_elapsed()) / self.speedup
        if delay > 0:
            self._wakeup.wait(timeout=min(delay, 0.05))
