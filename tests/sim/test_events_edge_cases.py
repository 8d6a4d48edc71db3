"""Edge cases of events and timers."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-0.1)


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError, match="needs an exception"):
        ev.fail("not an exception")


def test_call_at_runs_at_absolute_time():
    sim = Simulator()
    times = []
    sim.call_later(1.0, lambda: sim.call_at(5.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [5.0]


def test_call_at_in_the_past_rejected():
    sim = Simulator()
    sim.call_later(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match="past"):
        sim.call_at(1.0, lambda: None)


def test_pending_count_ignores_cancelled():
    sim = Simulator()
    keep = sim.call_later(1.0, lambda: None)
    drop = sim.call_later(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_count() == 1
    keep.cancel()
    assert sim.pending_count() == 0


def test_run_until_triggered_respects_limit():
    sim = Simulator()
    ev = sim.timeout(10.0)
    with pytest.raises(SimulationError, match="not triggered by"):
        sim.run_until_triggered(ev, limit=5.0)


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(str(exc))

    sim.call_later(0.1, reenter)
    sim.run()
    assert errors and "reentrant" in errors[0]
