"""Edge admission control: token buckets, bounded queues, circuit breakers.

The paper's reconfiguration story assumes the *network* is the problem;
this module defends against *load*.  Without it ``send()`` admits
unboundedly: a flash crowd fills the retained send buffer, backpressure
propagates into every producer, and stability latency grows without
bound.  :class:`AdmissionController` sits in front of the send path and
applies three classic defenses, outermost first:

- a **token bucket** caps the sustained ingest rate (burst-tolerant
  throttling);
- a **bounded admission queue** absorbs bursts above the rate; when it
  is full the newcomer is refused, so what waits keeps its place.  Only
  entries that were never admitted are ever shed: once a message has been
  handed to ``send()`` and sequenced it is replicated like any other
  (chaos invariant 13 holds the controller to this);
- **per-peer circuit breakers** (closed → open → half-open) fed by the
  transport's own distress signals — retransmissions, channel
  suspensions, dead-peer reports.
  When too many breakers are open the gate closes and new work is shed
  *before* it can pile onto a struggling WAN.

The controller is opt-in, like the degradation policy: attach one to an
unsharded node with ``Stabilizer.set_admission(...)`` and route producers
through :meth:`AdmissionController.submit`.  Direct ``send()`` calls
stay legal — they take the fail-fast path (token + breaker check, no
queueing) and raise :class:`~repro.errors.AdmissionError` when refused.

Everything reports through ``admission.*`` / ``breaker.*`` metrics in the
node's stats and emits traces on sheds and breaker transitions; see
``docs/overload.md`` for the pipeline and tuning guidance.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import AdmissionError, BackpressureError, StabilizerError
from repro.obs.tracer import NULL_TRACER

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Consecutive unhealthy transport polls that open a peer's breaker.
BREAKER_FAILURE_THRESHOLD = 3
#: How long an open breaker waits before it lets one probe through.
BREAKER_COOLDOWN_S = 1.0
#: The gate sheds new work while at least this share of breakers is open.
BREAKER_OPEN_FRACTION = 0.5
#: Cadence of the pump that drains the queue and polls the transport.
PUMP_INTERVAL_S = 0.02
#: Bound of the admission queue: the most work waiting for a token.
QUEUE_LIMIT = 64


class TokenBucket:
    """A continuously refilling token bucket.

    ``rate_per_s`` tokens accrue per second, up to one second's worth;
    ``take`` spends them.  The clock is injected so the bucket runs
    on virtual time in simulation and wall time under the realtime
    scheduler.
    """

    def __init__(self, clock: Callable[[], float], rate_per_s: float):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        self.clock = clock
        self.rate_per_s = float(rate_per_s)
        self._tokens = self.rate_per_s
        self._last = clock()

    def _refill(self) -> None:
        now = self.clock()
        if now > self._last:
            self._tokens = min(
                self.rate_per_s, self._tokens + (now - self._last) * self.rate_per_s
            )
            self._last = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def take(self, n: float = 1.0) -> bool:
        """Spend ``n`` tokens if available; False leaves the bucket untouched."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def refund(self, n: float = 1.0) -> None:
        """Return tokens spent on an admit that did not go through."""
        self._refill()
        self._tokens = min(self.rate_per_s, self._tokens + n)


class CircuitBreaker:
    """Closed → open → half-open, driven by explicit success/failure marks.

    :data:`BREAKER_FAILURE_THRESHOLD` consecutive failures (or one
    :meth:`trip`, for unambiguous signals like a dead-peer report) open the
    breaker; after :data:`BREAKER_COOLDOWN_S` it becomes half-open, and the
    next mark decides: success closes it, failure re-opens with a fresh
    cooldown.  State is evaluated lazily against the clock, so no timer is
    needed.
    """

    def __init__(self, clock: Callable[[], float], label: str):
        self.clock = clock
        self.label = label
        self._state = BREAKER_CLOSED
        self._failures = 0  # consecutive, while closed
        self._opened_at = 0.0
        self.trips = 0
        self.closes = 0
        self.probes = 0
        #: fn(breaker, old_state, new_state) — the controller traces these.
        self.on_transition: Optional[Callable[["CircuitBreaker", str, str], None]] = None

    @property
    def state(self) -> str:
        if (
            self._state == BREAKER_OPEN
            and self.clock() - self._opened_at >= BREAKER_COOLDOWN_S
        ):
            self._transition(BREAKER_HALF_OPEN)
            self.probes += 1
        return self._state

    def _transition(self, new: str) -> None:
        old, self._state = self._state, new
        if old != new and self.on_transition is not None:
            self.on_transition(self, old, new)

    def trip(self) -> None:
        """Open immediately (dead-peer report: no vote needed)."""
        state = self.state
        if state != BREAKER_OPEN:
            self.trips += 1
            self._opened_at = self.clock()
            self._failures = 0
            self._transition(BREAKER_OPEN)
        else:
            self._opened_at = self.clock()  # extend the cooldown

    def record_failure(self) -> None:
        state = self.state
        if state == BREAKER_OPEN:
            return  # already open; cooldown keeps running
        if state == BREAKER_HALF_OPEN:
            self.trips += 1
            self._opened_at = self.clock()
            self._transition(BREAKER_OPEN)
            return
        self._failures += 1
        if self._failures >= BREAKER_FAILURE_THRESHOLD:
            self.trip()

    def record_success(self) -> None:
        state = self.state
        self._failures = 0
        if state == BREAKER_HALF_OPEN:
            self.closes += 1
            self._transition(BREAKER_CLOSED)

class AdmissionOutcome(NamedTuple):
    """What :meth:`AdmissionController.submit` resolved to."""

    status: str  # "sent" | "queued" | "shed"
    seq: Optional[int]  # sequence number when status == "sent"
    reason: str  # shed/queue reason ("", "rate", "breaker", "queue_full", ...)


class _Entry:
    __slots__ = ("payload", "meta", "admitted")

    def __init__(self, payload, meta):
        self.payload = payload
        self.meta = meta
        self.admitted = False


class AdmissionController:
    """See module docstring.  One controller guards one node's ingest.

    ``node`` is an unsharded :class:`~repro.core.stabilizer.Stabilizer`;
    attach through its ``set_admission`` so the send-path preflight and
    stats merge are wired up.  ``rate_per_s`` is the sustained admit
    rate (the bucket holds one second's worth); at most
    :data:`QUEUE_LIMIT` entries wait in the bounded queue.
    Breakers open after :data:`BREAKER_FAILURE_THRESHOLD` consecutive
    unhealthy transport polls (or instantly on a dead-peer report) and
    the gate sheds new work while at least :data:`BREAKER_OPEN_FRACTION`
    of peer breakers are open.
    """

    def __init__(self, node, rate_per_s: float):
        self.node = node
        self.sim = node.sim
        self.name = node.name
        self.tracer = getattr(node, "tracer", None) or NULL_TRACER
        self.bucket = TokenBucket(self.sim.clock, rate_per_s)
        self._queue: deque = deque()
        self._breakers: Dict[str, CircuitBreaker] = {}
        # (peer, channel) -> retransmissions at last poll.
        self._chan_seen: Dict[Tuple[str, str], int] = {}
        self._on_admitted: List[Callable[[int], None]] = []
        self._in_admit = False
        self._closed = False
        # Submit-path accounting; invariant 13 audits these:
        # offered == admitted + shed + len(queue), and admitted_shed == 0.
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.shed_by_reason: Dict[str, int] = {}
        self.admitted_shed = 0  # must stay zero, forever
        self.requeues = 0
        self.queue_peak = 0
        # Direct-send (preflight) accounting, separate from submit's.
        self.direct_offered = 0
        self.direct_admitted = 0
        self.direct_refused = 0
        for peer in node.config.remote_names():
            self._breaker(peer)
        node.on_peer_dead(self._on_peer_dead)
        self._pump_timer = self.sim.call_later(PUMP_INTERVAL_S, self._pump)

    # ------------------------------------------------------------------ wiring
    def _on_peer_dead(self, peer: str, _shard: Optional[int]) -> None:
        self._breaker(peer).trip()

    def _breaker(self, peer: str) -> CircuitBreaker:
        breaker = self._breakers.get(peer)
        if breaker is None:
            breaker = CircuitBreaker(self.sim.clock, peer)
            breaker.on_transition = self._trace_transition
            self._breakers[peer] = breaker
        return breaker

    def _trace_transition(self, breaker: CircuitBreaker, old: str, new: str) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                self.name, f"breaker.{new}", peer=breaker.label, was=old
            )

    def on_admitted(self, fn: Callable[[int], None]) -> None:
        """Subscribe to admissions: ``fn(seq)`` after each send the
        controller performed."""
        self._on_admitted.append(fn)

    # ------------------------------------------------------------------ the gate
    def open_breakers(self) -> List[str]:
        return sorted(
            b.label for b in self._breakers.values() if b.state == BREAKER_OPEN
        )

    def gate_open(self) -> bool:
        """False while too many peer breakers are open to admit new work."""
        if not self._breakers:
            return True
        open_count = sum(
            1 for b in self._breakers.values() if b.state == BREAKER_OPEN
        )
        return open_count < BREAKER_OPEN_FRACTION * len(self._breakers)

    def submit(self, payload, meta=None) -> AdmissionOutcome:
        """Offer one message; admit, queue, or shed it.

        Returns the outcome: ``"sent"`` with the sequence number when a
        token was available and the send went through; ``"queued"`` when
        the message waits its turn in the bounded queue (the pump drains
        it at the token rate); ``"shed"`` when it was refused — by the
        breaker gate, or because the queue is full.  A shed
        message was *never* admitted; a queued one is not admitted until
        the pump sends it.
        """
        if self._closed:
            raise StabilizerError("admission controller is closed")
        self.offered += 1
        if not self.gate_open():
            return self._shed(None, "breaker")
        entry = _Entry(payload, meta)
        if not self._queue and self.bucket.take():
            try:
                seq = self._admit(entry)
            except BackpressureError:
                self.bucket.refund()
                return self._enqueue(entry)
            return AdmissionOutcome("sent", seq, "")
        return self._enqueue(entry)

    def _enqueue(self, entry: _Entry) -> AdmissionOutcome:
        if len(self._queue) >= QUEUE_LIMIT:
            return self._shed(entry, "queue_full")
        self._queue.append(entry)
        if len(self._queue) > self.queue_peak:
            self.queue_peak = len(self._queue)
        return AdmissionOutcome("queued", None, "")

    def _shed(self, entry: Optional[_Entry], reason: str) -> AdmissionOutcome:
        self.shed += 1
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        if entry is not None and entry.admitted:
            # Structurally unreachable: only never-admitted queue entries
            # are ever shed.  Counted anyway so chaos invariant 13 audits
            # the claim instead of trusting it.
            self.admitted_shed += 1
        if self.tracer.enabled:
            self.tracer.emit(
                self.name, "admission.shed", reason=reason, queued=len(self._queue)
            )
        return AdmissionOutcome("shed", None, reason)

    def _admit(self, entry: _Entry) -> int:
        """Perform the send for an entry that holds a token."""
        self._in_admit = True
        try:
            seq = self.node.send(entry.payload, entry.meta)
        finally:
            self._in_admit = False
        entry.admitted = True
        self.admitted += 1
        for fn in self._on_admitted:
            fn(seq)
        return seq

    # ------------------------------------------------------------------ direct sends
    def preflight(self) -> None:
        """The fail-fast gate for direct ``send()`` calls.

        Invoked by the node's send path when a controller is attached.
        Direct sends bypass the queue on purpose — ``send()`` returns a
        sequence number synchronously, so there is nothing to defer into;
        a refusal raises :class:`~repro.errors.AdmissionError` and the
        caller decides (retry later, route elsewhere, drop its own work).
        The controller's internal sends skip the gate: their token was
        charged at submit/pump time.
        """
        if self._in_admit or self._closed:
            return
        self.direct_offered += 1
        if not self.gate_open():
            self.direct_refused += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    self.name,
                    "admission.refused",
                    reason="breaker",
                    open=",".join(self.open_breakers()),
                )
            raise AdmissionError(
                f"{self.name}: admission refused, circuit breakers open "
                f"toward {', '.join(self.open_breakers())}",
                reason="breaker",
            )
        if not self.bucket.take():
            self.direct_refused += 1
            if self.tracer.enabled:
                self.tracer.emit(self.name, "admission.refused", reason="rate")
            raise AdmissionError(
                f"{self.name}: admission refused, ingest above "
                f"{self.bucket.rate_per_s}/s",
                reason="rate",
            )
        self.direct_admitted += 1

    # ------------------------------------------------------------------ the pump
    def _pump(self) -> None:
        if self._closed:
            return
        self._pump_timer = self.sim.call_later(PUMP_INTERVAL_S, self._pump)
        self._poll_breakers()
        while self._queue and self.gate_open() and self.bucket.take():
            entry = self._queue.popleft()
            try:
                self._admit(entry)
            except BackpressureError:
                # The send path refused (buffer full):
                # the entry stays un-admitted at the head of the queue
                # and the pump retries next tick.  Never shed — it was
                # offered in good faith and the refusal is transient.
                self.bucket.refund()
                self._queue.appendleft(entry)
                self.requeues += 1
                break

    def _poll_breakers(self) -> None:
        health: Dict[str, bool] = {}
        for slot, chan in self.node.endpoint.channels().items():
            unhealthy = (
                chan.retransmissions > self._chan_seen.get(slot, 0)
                or chan.suspended
            )
            self._chan_seen[slot] = chan.retransmissions
            peer = slot[0]
            health[peer] = health.get(peer, True) and not unhealthy
        for peer, healthy in health.items():
            breaker = self._breaker(peer)
            if healthy:
                breaker.record_success()
            else:
                breaker.record_failure()

    # ------------------------------------------------------------------ introspection
    def queue_depth(self) -> int:
        return len(self._queue)

    def stats(self) -> Dict[str, float]:
        """The ``admission.*`` / ``breaker.*`` metric family, flat."""
        states = [b.state for b in self._breakers.values()]
        out = {
            "admission.offered": self.offered,
            "admission.admitted": self.admitted,
            "admission.shed": self.shed,
            "admission.admitted_shed": self.admitted_shed,
            "admission.queue_depth": len(self._queue),
            "admission.queue_peak": self.queue_peak,
            "admission.requeues": self.requeues,
            "admission.tokens": self.bucket.tokens,
            "admission.direct_offered": self.direct_offered,
            "admission.direct_admitted": self.direct_admitted,
            "admission.direct_refused": self.direct_refused,
            "breaker.count": len(states),
            "breaker.open": sum(1 for s in states if s == BREAKER_OPEN),
            "breaker.half_open": sum(1 for s in states if s == BREAKER_HALF_OPEN),
            "breaker.trips": sum(b.trips for b in self._breakers.values()),
            "breaker.closes": sum(b.closes for b in self._breakers.values()),
            "breaker.probes": sum(b.probes for b in self._breakers.values()),
        }
        for reason, count in self.shed_by_reason.items():
            out[f"admission.shed_{reason}"] = count
        return out

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pump_timer is not None:
            self._pump_timer.cancel()
            self._pump_timer = None
