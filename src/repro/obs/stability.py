"""Derived stability-latency instruments (paper Sec. VI).

The quantity the paper measures — the delay from a message's ``send()``
to the instant a user-defined frontier predicate covers it — is derived,
not counted: it needs the send timestamp held until the frontier cell
advances past the sequence number.  :class:`StabilityInstruments` does
that bookkeeping for the local node's own stream, feeding one
per-predicate-key histogram (``stability_latency.<key>``) in the node's
:class:`~repro.obs.metrics.MetricsRegistry`.

Timestamps are garbage-collected once *every* registered key's frontier
covers them, so memory stays bounded by the in-flight window rather
than the run length.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["StabilityInstruments"]


class StabilityInstruments:
    """Per-predicate-key send→stable latency histograms for one node."""

    def __init__(
        self,
        registry: MetricsRegistry,
        clock: Callable[[], float],
        node: str,
        prefix: str = "stability_latency",
    ):
        self.registry = registry
        self.clock = clock
        self.node = node
        self.prefix = prefix
        self._send_times: Dict[int, float] = {}
        self._send_order: deque = deque()  # seqs in send order, for GC
        #: Per-key high-water mark of the local-origin frontier already
        #: turned into samples — prevents double-recording when a
        #: predicate is redefined and its frontier recomputed.
        self._covered: Dict[str, int] = {}
        self._samples = registry.counter(f"{prefix}.samples")
        #: Optional ``fn(key, latency_s)`` invoked per sample — the hook
        #: the SLO burn-rate alerter hangs off (see repro.obs.alerts).
        self.on_sample: Optional[Callable[[str, float], None]] = None

    def register_key(self, key: str) -> None:
        self._covered.setdefault(key, 0)

    def note_send(self, first_seq: int, last_seq: int) -> None:
        """Record the send instant for every chunk seq of one message."""
        now = self.clock()
        for seq in range(first_seq, last_seq + 1):
            if seq not in self._send_times:
                self._send_times[seq] = now
                self._send_order.append(seq)

    def on_advance(self, key: str, origin: str, frontier: int) -> None:
        """Feed the ``key`` histogram when the local stream's cell moves."""
        if origin != self.node:
            return
        covered = self._covered.get(key)
        if covered is None:
            # Key registered directly with the engine; start tracking.
            self._covered[key] = covered = 0
        if frontier <= covered:
            return
        hist = self.registry.histogram(f"{self.prefix}.{key}")
        now = self.clock()
        send_times = self._send_times
        samples = [
            now - send_times[seq]
            for seq in range(covered + 1, frontier + 1)
            if seq in send_times
        ]
        if samples:
            hist.observe_many(samples)
            self._samples.inc(len(samples))
            on_sample = self.on_sample
            if on_sample is not None:
                for latency in samples:
                    on_sample(key, latency)
        self._covered[key] = frontier
        self._gc()

    def oldest_pending_age(self, key: str) -> float:
        """Age of the oldest local send ``key``'s frontier has not
        covered, 0.0 when nothing is pending.

        The stall signal the latency histograms cannot give: a
        cumulative histogram only records once a message *becomes*
        stable, so when a frontier stops moving under overload the
        histogram goes silent while in-flight messages quietly age.
        This reads that age directly (``SlaController`` feeds on it).
        """
        covered = self._covered.get(key, 0)
        now = self.clock()
        send_times = self._send_times
        for seq in self._send_order:
            if seq > covered:
                ts = send_times.get(seq)
                if ts is not None:
                    return now - ts
        return 0.0

    def _gc(self) -> None:
        if not self._covered:
            return
        floor = min(self._covered.values())
        order = self._send_order
        while order and order[0] <= floor:
            self._send_times.pop(order.popleft(), None)

    def summary(self, key: str) -> Dict[str, float]:
        return self.registry.histogram(f"{self.prefix}.{key}").summary()

    def summaries(self) -> Dict[str, Dict[str, float]]:
        return {key: self.summary(key) for key in sorted(self._covered)}
