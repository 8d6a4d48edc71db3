"""Unit tests for the discrete-event kernel."""

import cProfile
import random
import weakref

import pytest

from repro.errors import SimulationError
from repro.runtime import RealtimeScheduler
from repro.sim import Interrupt, Simulator, TimerHandle


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_later_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.call_later(2.0, lambda: seen.append(("b", sim.now)))
    sim.call_later(1.0, lambda: seen.append(("a", sim.now)))
    sim.call_later(3.0, lambda: seen.append(("c", sim.now)))
    sim.run()
    assert seen == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    seen = []
    for label in "abc":
        sim.call_later(1.0, seen.append, label)
    sim.run()
    assert seen == ["a", "b", "c"]


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    handle = sim.call_later(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1.0, lambda: None)


def test_run_until_stops_clock_at_limit():
    sim = Simulator()
    sim.call_later(10.0, lambda: None)
    stopped_at = sim.run(until=5.0)
    assert stopped_at == 5.0
    assert sim.now == 5.0
    sim.run()
    assert sim.now == 10.0


def test_run_with_empty_heap_advances_to_until():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_event_succeed_delivers_value_to_callback():
    sim = Simulator()
    ev = sim.event()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.call_later(1.0, ev.succeed, 42)
    sim.run()
    assert got == [42]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_callback_added_after_trigger_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("late")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["late"]


def test_timeout_succeeds_at_deadline():
    sim = Simulator()
    to = sim.timeout(2.5, value="done")
    sim.run()
    assert to.ok
    assert to.value == "done"
    assert sim.now == 2.5


def test_process_sleeps_with_plain_numbers():
    sim = Simulator()
    marks = []

    def worker():
        marks.append(sim.now)
        yield 1.5
        marks.append(sim.now)
        yield 0.5
        marks.append(sim.now)
        return "finished"

    proc = sim.spawn(worker())
    result = sim.run_until_triggered(proc)
    assert result == "finished"
    assert marks == [0.0, 1.5, 2.0]


def test_process_waits_on_event_and_receives_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def worker():
        value = yield ev
        got.append(value)

    proc = sim.spawn(worker())
    sim.call_later(2.0, ev.succeed, "payload")
    sim.run_until_triggered(proc)
    assert got == ["payload"]


def test_failed_event_raises_inside_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def worker():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    proc = sim.spawn(worker())
    sim.call_later(1.0, ev.fail, ValueError("boom"))
    sim.run_until_triggered(proc)
    assert caught == ["boom"]


def test_unwatched_process_crash_fails_fast():
    sim = Simulator()

    def worker():
        yield 1.0
        raise RuntimeError("unhandled")

    sim.spawn(worker())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_watched_process_crash_delivers_to_waiter():
    sim = Simulator()

    def inner():
        yield 1.0
        raise RuntimeError("inner crash")

    def outer():
        try:
            yield sim.spawn(inner())
        except RuntimeError as exc:
            return f"caught: {exc}"

    proc = sim.spawn(outer())
    assert sim.run_until_triggered(proc) == "caught: inner crash"


def test_interrupt_is_thrown_into_process():
    sim = Simulator()
    log = []

    def worker():
        try:
            yield 100.0
        except Interrupt as intr:
            log.append(intr.cause)
        yield 1.0
        log.append(sim.now)

    proc = sim.spawn(worker())
    sim.call_later(2.0, proc.interrupt, "crash-test")
    sim.run_until_triggered(proc)
    assert log == ["crash-test", 3.0]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def worker():
        yield 1.0

    proc = sim.spawn(worker())
    sim.run_until_triggered(proc)
    proc.interrupt("late")
    sim.run()
    assert proc.ok


def test_process_yielding_garbage_fails():
    sim = Simulator()

    def worker():
        yield "not an event"

    proc = sim.spawn(worker())
    proc.add_callback(lambda e: None)
    sim.run()
    assert proc.failed
    assert isinstance(proc.exception, SimulationError)


def test_run_until_triggered_detects_drained_sim():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError, match="drained"):
        sim.run_until_triggered(ev)


def test_run_until_not_bypassed_by_cancelled_head():
    """Regression: a cancelled timer at the heap head must not let run()
    execute an event beyond the `until` limit (the clock then jumps past
    the limit and back, corrupting every in-flight timing)."""
    sim = Simulator()
    early = sim.call_later(0.3, lambda: None)
    ran = []
    sim.call_later(2.0, lambda: ran.append(sim.now))
    early.cancel()
    sim.run(until=0.5)
    assert ran == []
    assert sim.now == 0.5
    sim.run()
    assert ran == [2.0]


def test_spawned_process_does_not_run_before_run():
    sim = Simulator()
    marks = []

    def worker():
        marks.append("ran")
        yield 0.0

    sim.spawn(worker())
    assert marks == []
    sim.run()
    assert marks == ["ran"]


# ---------------------------------------------------------------------------
# The clock never moves backwards.
# ---------------------------------------------------------------------------


def test_run_until_behind_now_keeps_the_clock_with_an_event_pending():
    sim = Simulator()
    ran = []
    sim.call_later(5.0, ran.append, "late")
    sim.run(until=2.0)
    assert sim.run(until=1.0) == 2.0
    assert sim.now == 2.0
    assert ran == []
    # ... so nothing can be scheduled before what already happened.
    with pytest.raises(SimulationError, match="past"):
        sim.call_at(1.5, lambda: None)
    sim.run()
    assert ran == ["late"] and sim.now == 5.0


def test_run_until_behind_now_keeps_the_clock_on_an_empty_heap():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.run(until=1.0) == 3.0
    assert sim.now == 3.0


def test_realtime_run_until_behind_now_keeps_the_clock():
    sched = RealtimeScheduler(speedup=1000.0)
    ran = []
    sched.call_later(5.0, ran.append, "late")
    sched.run(until=2.0)
    reached = sched.now
    assert reached >= 2.0
    assert sched.run(until=1.0) >= reached
    assert sched.now >= reached
    assert ran == []


# ---------------------------------------------------------------------------
# The handle is the heap entry.
# ---------------------------------------------------------------------------


def test_handle_reports_time_and_consumption():
    sim = Simulator()
    handle = sim.call_later(1.5, lambda: None)
    assert isinstance(handle, TimerHandle)
    assert handle.time == 1.5 and not handle.cancelled
    sim.run()
    # A fired handle reads as cancelled, and cancelling it stays a no-op.
    assert handle.time == 1.5 and handle.cancelled
    handle.cancel()
    assert sim.pending_count() == 0


def test_fired_and_cancelled_handles_release_their_references():
    class Probe:
        pass

    sim = Simulator()
    fired, dropped = Probe(), Probe()
    refs = [weakref.ref(fired), weakref.ref(dropped)]
    handles = [
        sim.call_later(1.0, lambda probe: None, fired),
        sim.call_later(2.0, lambda probe: None, dropped),
    ]
    handles[1].cancel()
    del fired, dropped
    assert refs[0]() is not None and refs[1]() is None
    sim.run()
    assert refs[0]() is None
    assert all(handle.cancelled for handle in handles)


def test_cancel_from_inside_the_callback_is_a_noop():
    sim = Simulator()
    seen = []
    handles = []

    def fire():
        seen.append(handles[0].cancelled)  # already consumed when it runs
        handles[0].cancel()
        sim.call_later(0.0, seen.append, "next")

    handles.append(sim.call_later(1.0, fire))
    sim.run()
    assert seen == [True, "next"]


# ---------------------------------------------------------------------------
# Differential: seeded random programs against a reference model.
# ---------------------------------------------------------------------------


class ModelHandle:
    def __init__(self, time, order, fn, args):
        self.time, self.order, self.fn, self.args = time, order, fn, args
        self.cancelled = False

    def cancel(self):
        self.cancelled, self.fn, self.args = True, None, ()


class ModelSimulator:
    """The kernel's contract, written the slow way: every entry in one
    list, re-sorted by ``(time, insertion)`` on each insert."""

    def __init__(self):
        self.now = 0.0
        self.entries = []
        self.inserted = 0

    def call_at(self, time, fn, *args):
        if time < self.now:
            raise SimulationError("past")
        self.inserted += 1
        handle = ModelHandle(time, self.inserted, fn, args)
        self.entries.append(handle)
        self.entries.sort(key=lambda h: (h.time, h.order))
        return handle

    def call_later(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError("negative")
        return self.call_at(self.now + delay, fn, *args)

    def step(self):
        while self.entries:
            handle = self.entries.pop(0)
            if handle.cancelled:
                continue
            self.now = handle.time
            fn, args = handle.fn, handle.args
            handle.cancel()
            fn(*args)
            return True
        return False

    def run(self, until=None):
        while True:
            live = [h for h in self.entries if not h.cancelled]
            if not live or (until is not None and live[0].time > until):
                break
            self.step()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def pending_count(self):
        return sum(1 for h in self.entries if not h.cancelled)


class Boom(Exception):
    """Raised by a callback of a random program."""


def run_program(sim, seed):
    """Drive ``sim`` through a seeded random program; return what an
    observer could see.  Every random draw happens in execution order, so
    two kernels that agree consume the same stream.  Some callbacks raise:
    the exception leaves ``step``/``run``, the raising handle is consumed,
    ``run`` is re-entrant again and the program carries on."""
    rng = random.Random(seed)
    trace = []
    handles = []

    def fire(ident, depth):
        handle = handles[ident]
        trace.append(("fire", ident, sim.now, handle.time, handle.cancelled))
        if depth < 3:
            for _ in range(rng.randrange(3)):
                act(depth + 1)
        if rng.random() < 0.15:
            raise Boom(ident)

    def guarded(call, *args):
        try:
            return call(*args)
        except Boom as exc:
            ident = exc.args[0]
            running = getattr(sim, "_running", False)  # the model has none
            trace.append(("raised", ident, handles[ident].cancelled, running))
            return "raised"

    def schedule(depth):
        ident = len(handles)
        if rng.random() < 0.5:
            delay = rng.choice((0.0, 0.0, 0.5, 1.0, rng.random() * 3))
            handle = sim.call_later(delay, fire, ident, depth)
        else:
            time = sim.now + rng.choice((0.0, 1.0, rng.random() * 3))
            handle = sim.call_at(time, fire, ident, depth)
        handles.append(handle)
        trace.append(("scheduled", ident, handle.time, handle.cancelled))

    def refused(call, *args):
        try:
            call(*args, fire, -1, 0)
        except SimulationError:
            return True
        return False

    def act(depth):
        draw = rng.random()
        if draw < 0.55 or not handles:
            schedule(depth)
        elif draw < 0.8:
            victim = rng.randrange(len(handles))  # live, fired or cancelled
            handles[victim].cancel()
            trace.append(("cancel", victim, handles[victim].cancelled))
        elif draw < 0.9:
            trace.append(("pending", sim.pending_count()))
        else:
            trace.append(("negative", refused(sim.call_later, -0.1)))
            if sim.now > 0:
                trace.append(("past", refused(sim.call_at, sim.now / 2)))

    for _ in range(60):
        draw = rng.random()
        if draw < 0.6:
            act(0)
        elif draw < 0.8:
            trace.append(("step", guarded(sim.step), sim.now))
        else:
            until = sim.now + rng.choice((-1.0, 0.0, 0.7, 2.0))
            trace.append(("run", guarded(sim.run, until), sim.now))
        trace.append(("pending", sim.pending_count()))
    while True:
        drained = guarded(sim.run)
        trace.append(("drain", drained, sim.now, sim.pending_count()))
        if drained != "raised":
            break
    trace.append(("handles", [(h.time, h.cancelled) for h in handles]))
    return trace


@pytest.mark.parametrize("seed", range(25))
def test_random_programs_match_the_reference_model(seed):
    trace = run_program(Simulator(), seed)
    assert trace == run_program(ModelSimulator(), seed)
    # Every handle ends consumed, and the programs are not trivial.
    assert all(cancelled for _time, cancelled in trace[-1][1])
    assert sum(1 for entry in trace if entry[0] == "fire") >= 5
    # Some callback raised; each was consumed and left run() re-entrant.
    raised = [entry for entry in trace if entry[0] == "raised"]
    assert raised
    assert all(consumed and not running for _, _, consumed, running in raised)


def test_run_dispatches_every_event_through_step():
    """``run`` calls ``step`` once per event it dispatches and for nothing
    else — not for cancelled entries, not past ``until``.  A contract:
    ``perf/trace.py`` reports ``sim.events_per_send`` as the profile's call
    count of ``Simulator.step`` (``count_calls``' profiler, read per
    function), and a ``run`` that dispatched inline would make that metric
    read null."""
    sim = Simulator()
    fired = []
    for index in range(30):
        handle = sim.call_later(index * 0.1, fired.append, index)
        if index % 4 == 1:
            handle.cancel()
    profiler = cProfile.Profile()
    profiler.runcall(sim.run, 2.0)
    assert fired == [index for index in range(21) if index % 4 != 1]
    profiler.runcall(sim.run)
    assert fired == [index for index in range(30) if index % 4 != 1]
    step_calls = sum(
        entry.callcount
        for entry in profiler.getstats()
        if entry.code is Simulator.step.__code__
    )
    assert step_calls == len(fired)
