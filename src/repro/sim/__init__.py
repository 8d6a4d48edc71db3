"""Deterministic discrete-event simulation kernel.

This package is the bottom layer of the reproduction: every benchmark in the
paper's evaluation runs on top of it so that results are reproducible
bit-for-bit given a seed.  The design is a small, explicit subset of the
classic process-interaction style (as in SimPy):

- :class:`~repro.sim.kernel.Simulator` owns the virtual clock and the event
  heap.
- :class:`~repro.sim.events.Event` is a one-shot occurrence that processes
  can wait on.
- :class:`~repro.sim.process.Process` drives a generator; the generator
  yields events (or plain numbers, meaning "sleep that many seconds").
- :class:`~repro.sim.rng.RngRegistry` hands out independent named random
  streams derived from one root seed.
- :mod:`repro.sim.monitor` collects time series and distribution statistics.
"""

from repro.sim.events import Event, Timeout
from repro.sim.kernel import Simulator, TimerHandle
from repro.sim.monitor import Histogram, Series
from repro.sim.process import Interrupt, Process
from repro.sim.rng import RngRegistry

__all__ = [
    "Event",
    "Histogram",
    "Interrupt",
    "Process",
    "RngRegistry",
    "Series",
    "Simulator",
    "TimerHandle",
    "Timeout",
]
