"""Generator-driven simulation processes.

A process wraps a generator.  The generator yields:

- an :class:`~repro.sim.events.Event` — the process sleeps until it
  triggers and resumes with the event's value (or the exception is thrown
  into the generator if the event failed);
- an ``int`` or ``float`` — sugar for ``sim.timeout(n)``.

The process object is itself an event: it succeeds with the generator's
return value, or fails with its uncaught exception, so one process can
wait on another like on any event.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import Event


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Used by failure-injection tests to model crashes and by timers that
    abort a blocked operation.  ``cause`` carries arbitrary context.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Drives a generator through the simulator; see module docstring."""

    __slots__ = ("name", "_generator", "_waiting_on", "_had_subscribers")

    def __init__(self, sim, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._had_subscribers = False
        sim._schedule_now(self._resume, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        No-op if the process already finished.  A process blocked on an
        event is detached from it; the event itself is unaffected.
        """
        if self.triggered:
            return
        self.sim._schedule_now(self._throw_interrupt, Interrupt(cause))

    # -- internals -----------------------------------------------------------
    def _resume(self, trigger: Optional[Event]) -> None:
        if self.triggered:
            return  # interrupted and finished while an event was in flight
        if trigger is not None and trigger is not self._waiting_on:
            return  # stale wakeup: we were interrupted past this event
        self._waiting_on = None
        try:
            if trigger is not None and trigger.failed:
                target = self._generator.throw(trigger.exception)
            else:
                value = trigger.value if trigger is not None else None
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # A process that lets an interrupt escape simply terminates.
            self.succeed(None)
            return
        except BaseException as exc:  # noqa: BLE001 - must capture to fail event
            self.fail(exc)
            if not self._callbacks_present():
                raise
            return
        self._wait_on(target)

    def _throw_interrupt(self, interrupt: Interrupt) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        try:
            target = self._generator.throw(interrupt)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            self.succeed(None)
            return
        except BaseException as exc:  # noqa: BLE001
            self.fail(exc)
            if not self._callbacks_present():
                raise
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, (int, float)):
            target = self.sim.timeout(target)
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; expected an "
                    "Event or a number of seconds"
                )
            )
            return
        if target.sim is not self.sim:
            self.fail(SimulationError("yielded an event from another simulator"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)

    def _callbacks_present(self) -> bool:
        # A crash in a process nobody is waiting on should abort the run
        # (fail-fast in tests); a watched process instead delivers the
        # exception to its waiters through the event machinery.
        return self._had_subscribers

    def add_callback(self, callback) -> None:  # type: ignore[override]
        self._had_subscribers = True
        super().add_callback(callback)
