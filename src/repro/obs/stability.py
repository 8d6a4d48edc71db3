"""Derived stability-latency instruments (paper Sec. VI).

The quantity the paper measures — the delay from a message's ``send()``
to the instant a user-defined frontier predicate covers it — is derived,
not counted: it needs the send timestamp held until the frontier cell
advances past the sequence number.  :class:`StabilityInstruments` does
that bookkeeping for the local node's own stream, feeding one
per-predicate-key histogram (``stability_latency.<key>``) in the node's
:class:`~repro.obs.metrics.MetricsRegistry`.

Every chunk of one ``send()`` shares its send instant, so the instruments
keep one ``(first_seq, last_seq, sent_at)`` run per send, not a stamp per
chunk, and a frontier advance observes each run it covers once, with the
number of its sequences it covers (:meth:`~repro.obs.metrics.Histogram.
observe_n`, bit-identical to one observation per sequence).  A run is
garbage-collected once *every* registered key's frontier covers it, so
memory stays bounded by the in-flight window rather than the run
length.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional

from repro.obs.metrics import Histogram, MetricsRegistry

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
        #: One ``(first_seq, last_seq, sent_at)`` per send, in send order:
        #: every chunk of one ``send()`` shares its instant.  Only sequences
        #: above the GC floor are held (the head run is trimmed to it).
        self._runs: deque = deque()
        #: Per-key high-water mark of the local-origin frontier already
        #: turned into samples — prevents double-recording when a
        #: predicate is redefined and its frontier recomputed.
        self._covered: Dict[str, int] = {}
        #: The lowest value in ``_covered``: only the key that holds it
        #: can move the GC floor when it advances.
        self._floor = 0
        #: key -> its histogram, from the first advance that samples it.
        self._hists: Dict[str, Histogram] = {}
        self._samples = registry.counter(f"{prefix}.samples")
        #: Optional ``fn(key, latency_s)`` invoked per sample — the hook
        #: the SLO burn-rate alerter hangs off (see repro.obs.alerts).
        self.on_sample: Optional[Callable[[str, float], None]] = None

    def register_key(self, key: str) -> None:
        if key not in self._covered:
            self._covered[key] = self._floor = 0

    def note_send(self, first_seq: int, last_seq: int) -> None:
        """Record the send instant of one message, chunk seqs
        ``first_seq..last_seq``."""
        self._runs.append((first_seq, last_seq, self.clock()))

    def on_advance(self, key: str, origin: str, frontier: int) -> None:
        """Feed the ``key`` histogram when the local stream's cell moves:
        one sample per newly covered seq, observed once per run."""
        if origin != self.node:
            return
        covered = self._covered.get(key)
        if covered is None:
            # Key registered directly with the engine; start tracking.
            self.register_key(key)
            covered = 0
        if frontier <= covered:
            return
        hist = self._hists.get(key)
        if hist is None:
            name = f"{self.prefix}.{key}"
            hist = self._hists[key] = self.registry.histogram(name)
        runs = self._runs
        at = self._first_run_above(covered)
        end = len(runs)
        if at < end:
            now = self.clock()
            on_sample = self.on_sample
            # (latency, samples) per covered run, for on_sample once the
            # histogram holds them all.
            heard = [] if on_sample is not None else None
            total = 0
            while at < end:
                first, last, sent_at = runs[at]
                if first > frontier:
                    break
                if first <= covered:
                    first = covered + 1
                if last > frontier:
                    last = frontier
                latency, count = now - sent_at, last - first + 1
                hist.observe_n(latency, count)
                total += count
                if heard is not None:
                    heard.append((latency, count))
                at += 1
            self._samples.inc(total)
            if heard:
                for latency, count in heard:
                    for _ in range(count):
                        on_sample(key, latency)
        self._covered[key] = frontier
        if covered == self._floor:
            self._gc()

    def _first_run_above(self, seq: int) -> int:
        """Index of the first run holding a sequence above ``seq``."""
        runs = self._runs
        if not runs or runs[0][1] > seq:
            return 0  # the usual case: the key at the GC floor
        low, high = 1, len(runs)
        while low < high:
            mid = (low + high) // 2
            if runs[mid][1] <= seq:
                low = mid + 1
            else:
                high = mid
        return low

    def oldest_pending_age(self, key: str) -> float:
        """Age of the oldest local send ``key``'s frontier has not
        covered, 0.0 when nothing is pending.

        The stall signal the latency histograms cannot give: a
        cumulative histogram only records once a message *becomes*
        stable, so when a frontier stops moving under overload the
        histogram goes silent while in-flight messages quietly age.
        This reads that age directly (``SlaController`` feeds on it).
        """
        at = self._first_run_above(self._covered.get(key, 0))
        if at == len(self._runs):
            return 0.0
        return self.clock() - self._runs[at][2]

    def _gc(self) -> None:
        """Forget what every key covers: the runs at or below the new
        floor, and the covered part of the run across it."""
        self._floor = floor = min(self._covered.values())
        runs = self._runs
        while runs and runs[0][1] <= floor:
            runs.popleft()
        if runs and runs[0][0] <= floor:
            runs[0] = (floor + 1,) + runs[0][1:]

    def summary(self, key: str) -> Dict[str, float]:
        return self.registry.histogram(f"{self.prefix}.{key}").summary()

    def summaries(self) -> Dict[str, Dict[str, float]]:
        return {key: self.summary(key) for key in sorted(self._covered)}
