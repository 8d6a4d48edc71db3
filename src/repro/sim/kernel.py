"""The simulation event loop: a virtual clock over a binary heap."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, Timeout


class TimerHandle(list):
    """Cancellable handle for a scheduled callback.

    The handle *is* the heap entry, ``[time, seq, fn, args]``: scheduling
    costs one allocation and one push.  ``(time, seq)`` is unique, so the
    heap's list comparison is decided before it reaches ``fn``.  A blank
    ``fn`` marks an entry that was cancelled or has already run.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Virtual time the callback is (or was) due."""
        return self[0]

    @property
    def cancelled(self) -> bool:
        """True once the callback can no longer run: cancelled, or consumed."""
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if it already ran)."""
        self[2] = None
        self[3] = ()


class Simulator:
    """Owns the virtual clock and executes callbacks in time order.

    Ties are broken by insertion order, so a run is fully deterministic:
    the same program produces the same event interleaving every time.
    """

    def __init__(self) -> None:
        #: Current virtual time in seconds.  Only the event loop assigns it.
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self._running = False

    # -- clock -------------------------------------------------------------
    def clock(self) -> float:
        """The virtual clock as a plain callable.

        Pass the bound method (``sim.clock``) wherever a time source is
        injected — e.g. :class:`repro.obs.tracer.Tracer` — so simulated
        components stamp virtual time instead of wall time.
        """
        return self.now

    # -- scheduling primitives ----------------------------------------------
    # call_at and call_later each push their own entry: a shared helper
    # would put a second Python call (and a re-packed ``*args``) on every
    # packet and timer.
    def call_at(self, time: float, fn: Callable, *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past (now={self.now}, target={time})"
            )
        self._seq = seq = self._seq + 1
        handle = TimerHandle((time, seq, fn, args))
        heappush(self._heap, handle)
        return handle

    def call_later(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq = seq = self._seq + 1
        handle = TimerHandle((self.now + delay, seq, fn, args))
        heappush(self._heap, handle)
        return handle

    def _schedule_now(self, fn: Callable, *args: Any) -> TimerHandle:
        return self.call_at(self.now, fn, *args)

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator, name: str = "") -> "Process":  # noqa: F821
        """Start a new process driving ``generator``; see :mod:`.process`."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    # -- execution -----------------------------------------------------------
    def _next_time(self) -> Optional[float]:
        """Time of the next callback that will actually run, or ``None``
        when idle; cancelled entries at the heap head are discarded on the
        way.  :meth:`run` peeks at the head itself, to save this call on
        every event."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2] is not None:
                return head[0]
            heappop(heap)
        return None

    def step(self) -> bool:
        """Execute the next scheduled callback.  Returns False when idle."""
        heap = self._heap
        while heap:
            handle = heappop(heap)
            fn = handle[2]
            if fn is None:
                continue
            self.now = handle[0]
            args = handle[3]
            # Consumed: a later cancel() is a no-op and the references go.
            handle[2] = None
            handle[3] = ()
            fn(*args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains or virtual time reaches ``until``.

        Returns the virtual time at which the run stopped.  Processes that
        die with an uncaught exception re-raise it here (fail-fast), unless
        another process was waiting on them.  The clock never moves
        backwards: an ``until`` already behind ``now`` runs nothing.

        Every event is dispatched by one :meth:`step` call — a contract:
        the per-layer profile counts events as ``step``'s calls.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        step = self.step
        limit = float("inf") if until is None else until
        try:
            while heap:
                head = heap[0]
                if head[2] is None:
                    heappop(heap)  # cancelled: drop it as it surfaces
                elif head[0] > limit:
                    break
                else:
                    step()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
        return self.now

    def run_until_triggered(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` triggers; returns its value.

        Raises :class:`SimulationError` if the simulation drains or passes
        ``limit`` first — a convenient guard in tests.
        """
        while not event.triggered:
            next_time = self._next_time()
            if next_time is None:
                raise SimulationError("simulation drained before event triggered")
            if next_time > limit:
                raise SimulationError(f"event not triggered by t={limit}")
            self.step()
        return event.value

    def pending_count(self) -> int:
        """Number of not-yet-cancelled entries in the heap (approximate).

        A link arms only the first of its in-order packets in flight
        (:mod:`repro.net.link`): the packets queued behind it are not
        heap entries, and this count does not see them."""
        return sum(1 for handle in self._heap if not handle.cancelled)
