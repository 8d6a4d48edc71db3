"""One-shot events that simulation processes can wait on."""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"


class Event:
    """A one-shot occurrence inside a simulation.

    An event starts *pending*; exactly once, it either *succeeds* with a
    value or *fails* with an exception.  Callbacks added before that moment
    run when it triggers; callbacks added afterwards run immediately (still
    through the simulator, so ordering stays deterministic).
    """

    __slots__ = ("sim", "_state", "_value", "_exc", "_callbacks")

    def __init__(self, sim: "Simulator"):  # noqa: F821 - forward ref
        self.sim = sim
        self._state = PENDING
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: List[Callable[["Event"], None]] = []

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != PENDING

    @property
    def ok(self) -> bool:
        return self._state == SUCCEEDED

    @property
    def failed(self) -> bool:
        return self._state == FAILED

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise SimulationError("event value read before it triggered")
        if self._state == FAILED:
            raise self._exc  # type: ignore[misc]
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._state != PENDING:
            raise SimulationError("event triggered twice")
        self._state = SUCCEEDED
        self._value = value
        self._dispatch()
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._state != PENDING:
            raise SimulationError("event triggered twice")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._state = FAILED
        self._exc = exc
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self.sim._schedule_now(callback, self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once this event has triggered."""
        if self._state == PENDING:
            self._callbacks.append(callback)
        else:
            self.sim._schedule_now(callback, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that succeeds after a fixed virtual delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        sim.call_at(sim.now + delay, self.succeed, value)
