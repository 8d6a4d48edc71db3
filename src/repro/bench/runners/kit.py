"""What every driver does, once: build a network and a cluster, time
send -> stable per predicate, replay a trace, wait for convergence, count
Python calls.  Primitives, not a framework — a driver calls what it needs
and builds its own result from what comes back.
"""

from __future__ import annotations

import cProfile
import gc
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.core import build_cluster  # re-exported: the second primitive
from repro.net.topology import Network, Topology
from repro.sim import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.transport.messages import SyntheticPayload
from repro.workloads.dropbox_trace import TraceRecord


def build_network(topology: Topology, seed: int = 0) -> Tuple[Simulator, Network]:
    sim = Simulator()
    return sim, topology.build(sim, RngRegistry(seed))


class Sample(NamedTuple):
    """One message under one predicate: sent at ``sent``, first covered
    by the predicate's frontier at ``stable`` (both virtual seconds)."""

    seq: int
    sent: float
    stable: float

    @property
    def latency(self) -> float:
        return self.stable - self.sent


class StabilityProbe:
    """Send -> stable samples at one sender, per predicate key.

    Construction registers one monitor per key at the sender.  A monitor
    is demand — who observes a stream decides where its reports go — so a
    driver builds its probe where the experiment wants the observers to
    appear, before the first send.  Send through :meth:`send`: it stamps
    every sequence number the call produced (a payload above the chunk
    size is several), and a frontier advance turns each stamped number it
    covers into one :class:`Sample` under that key, in stabilization
    order.  Drivers build their own views (series by seq or by send time,
    latency lists, ack times) from ``samples``.
    """

    def __init__(
        self,
        sim: Simulator,
        sender,
        keys: Iterable[str],
        send: Optional[Callable[..., int]] = None,
    ):
        self.sim = sim
        self.sender = sender
        self._send = send or sender.send
        self.send_times: Dict[int, float] = {}
        self.samples: Dict[str, List[Sample]] = {key: [] for key in keys}
        for key, samples in self.samples.items():
            sender.monitor_stability_frontier(key, self._monitor(samples))

    def _monitor(self, samples: List[Sample]):
        def monitor(origin: str, frontier: int, old: int) -> None:
            if origin != self.sender.name:
                return
            now = self.sim.now
            for seq in range(old + 1, frontier + 1):
                sent = self.send_times.get(seq)
                if sent is not None:
                    samples.append(Sample(seq, sent, now))

        return monitor

    def send(self, payload) -> int:
        """Send ``payload`` (through the ``send`` callable given at
        construction, the sender's own by default); returns its result."""
        before = self.sender.last_sent_seq()
        result = self._send(payload)
        for seq in range(before + 1, self.sender.last_sent_seq() + 1):
            self.send_times[seq] = self.sim.now
        return result


def replay_trace(
    sim: Simulator, records: Iterable[TraceRecord], send: Callable[[object], object]
) -> Process:
    """Spawn a process that calls ``send(payload)`` for each record at the
    record's own time (at once, where the replay has fallen behind)."""

    def replay():
        for record in records:
            delay = record.time_s - sim.now
            if delay > 0:
                yield delay
            send(SyntheticPayload(record.size_bytes))

    process = sim.spawn(replay(), name="trace-replay")
    process.add_callback(lambda _e: None)  # watched: surface crashes
    return process


def drain(
    sim: Simulator,
    converged: Callable[[], bool],
    slice_s: float = 1.0,
    max_slices: int = 30,
    on_slice: Optional[Callable[[], object]] = None,
) -> bool:
    """Run ``sim`` on in slices of ``slice_s`` until ``converged()``, at
    most ``max_slices`` of them; returns whether it converged.
    ``converged`` is asked once before each slice and once at the end —
    a frontier read at a node that was not observing is itself traffic,
    so the number of asks is part of a run's result."""
    slices = 0
    while not converged() and slices < max_slices:
        slices += 1
        sim.run(until=sim.now + slice_s)
        if on_slice is not None:
            on_slice()
    return converged()


def count_calls(fn: Callable, *args, **kwargs) -> Tuple[object, int]:
    """``(fn(*args, **kwargs), Python calls made inside it)``, counted
    with ``cProfile``.  On the deterministic simulator the count is exact
    for a given input, so a gate on it reads the same on a loaded box —
    and a constant-factor slowdown still moves it."""
    profiler = cProfile.Profile()
    gc.collect()  # finalizers of earlier garbage would count as calls
    gc.disable()
    try:
        result = profiler.runcall(fn, *args, **kwargs)
    finally:
        gc.enable()
    return result, sum(entry.callcount for entry in profiler.getstats())
