"""Edge admission control: token buckets, bounded queues, circuit breakers.

The paper's reconfiguration story assumes the *network* is the problem;
this module defends against *load*.  Without it ``send()`` admits
unboundedly: a flash crowd fills the retained send buffer, backpressure
propagates into every producer, and stability latency grows without
bound.  :class:`AdmissionController` sits in front of the send path and
applies three classic defenses, outermost first:

- a **token bucket** caps the sustained ingest rate (burst-tolerant
  throttling);
- a **bounded admission queue** absorbs bursts above the rate with an
  explicit shed policy — ``"reject_new"`` refuses the newcomer,
  ``"drop_oldest"`` sheds the oldest *queued* entry to make room.  Only
  entries that were never admitted are ever shed: once a message has been
  handed to ``send()`` and sequenced it is replicated like any other
  (chaos invariant 13 holds the controller to this);
- **per-peer / per-shard circuit breakers** (closed → open → half-open)
  fed by the transport's own distress signals — retransmissions, channel
  suspensions, dead-peer reports — and by a peer's data-plane stream that
  stays stalled on its send window.
  When too many breakers are open the gate closes and new work is shed
  *before* it can pile onto a struggling WAN.

The controller is opt-in, like the degradation policy: attach one with
``Stabilizer.set_admission(...)`` / ``ShardedStabilizer.set_admission(...)``
and route producers through :meth:`AdmissionController.submit`.  Direct
``send()`` calls stay legal — they take the fail-fast path (token +
breaker check, no queueing) and raise
:class:`~repro.errors.AdmissionError` when refused.

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

#: (peer, shard) — shard is None for an unsharded node.
BreakerKey = Tuple[str, Optional[int]]


class TokenBucket:
    """A continuously refilling token bucket.

    ``rate_per_s`` tokens accrue per second up to ``burst``; ``take``
    spends them.  The clock is injected so the bucket runs on virtual
    time in simulation and wall time under the realtime scheduler.
    """

    def __init__(self, clock: Callable[[], float], rate_per_s: float, burst: float):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.clock = clock
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = clock()

    def _refill(self) -> None:
        now = self.clock()
        if now > self._last:
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate_per_s
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
        self._tokens = min(self.burst, self._tokens + n)

    def set_rate(self, rate_per_s: float) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        self._refill()  # settle the old rate first
        self.rate_per_s = float(rate_per_s)


class CircuitBreaker:
    """Closed → open → half-open, driven by explicit success/failure marks.

    ``failure_threshold`` consecutive failures (or one :meth:`trip`, for
    unambiguous signals like a dead-peer report) open the breaker; after
    ``cooldown_s`` it becomes half-open, and the next mark decides:
    success closes it, failure re-opens with a fresh cooldown.  State is
    evaluated lazily against the clock, so no timer is needed.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        label: str = "",
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.clock = clock
        self.label = label
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
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
            and self.clock() - self._opened_at >= self.cooldown_s
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
        if self._failures >= self.failure_threshold:
            self.trip()

    def record_success(self) -> None:
        state = self.state
        self._failures = 0
        if state == BREAKER_HALF_OPEN:
            self.closes += 1
            self._transition(BREAKER_CLOSED)

    def allow(self) -> bool:
        """Whether traffic toward this peer should flow right now."""
        return self.state != BREAKER_OPEN


class AdmissionOutcome(NamedTuple):
    """What :meth:`AdmissionController.submit` resolved to."""

    status: str  # "sent" | "queued" | "shed"
    seq: Optional[int]  # sequence number when status == "sent"
    reason: str  # shed/queue reason ("", "rate", "breaker", "queue_full", ...)


class _Entry:
    __slots__ = ("payload", "meta", "key", "shard", "admitted")

    def __init__(self, payload, meta, key, shard):
        self.payload = payload
        self.meta = meta
        self.key = key
        self.shard = shard
        self.admitted = False


class AdmissionController:
    """See module docstring.  One controller guards one node's ingest.

    ``node`` is a :class:`~repro.core.stabilizer.Stabilizer` or
    :class:`~repro.core.sharding.ShardedStabilizer`; attach through the
    node's ``set_admission`` so the send-path preflight and stats merge
    are wired up.  ``rate_per_s`` is the sustained admit rate,
    ``burst`` the bucket depth (default: one second's worth),
    ``queue_limit`` the bounded queue, ``shed_policy`` either
    ``"reject_new"`` or ``"drop_oldest"``.  Breakers open after
    ``breaker_failure_threshold`` consecutive unhealthy transport polls
    (or instantly on a dead-peer report) and the gate sheds new work
    while at least ``breaker_open_fraction`` of peer breakers are open.
    """

    SHED_POLICIES = ("reject_new", "drop_oldest")

    def __init__(
        self,
        node,
        rate_per_s: float,
        burst: Optional[float] = None,
        queue_limit: int = 256,
        shed_policy: str = "reject_new",
        breaker_failure_threshold: int = 3,
        breaker_cooldown_s: float = 1.0,
        breaker_open_fraction: float = 0.5,
        pump_interval_s: float = 0.02,
    ):
        if shed_policy not in self.SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {self.SHED_POLICIES}, "
                f"got {shed_policy!r}"
            )
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if not 0.0 < breaker_open_fraction <= 1.0:
            raise ValueError("breaker_open_fraction must be in (0, 1]")
        self.node = node
        self.sim = node.sim
        self.name = node.name
        self.tracer = getattr(node, "tracer", None) or NULL_TRACER
        self.bucket = TokenBucket(
            self.sim.clock, rate_per_s, burst if burst is not None else rate_per_s
        )
        self.queue_limit = queue_limit
        self.shed_policy = shed_policy
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.breaker_open_fraction = breaker_open_fraction
        self.pump_interval_s = pump_interval_s
        self._queue: deque = deque()
        self._breakers: Dict[BreakerKey, CircuitBreaker] = {}
        # (shard, peer, channel) -> (retransmissions, stalled) at last poll.
        self._chan_seen: Dict[Tuple[Optional[int], str, str], Tuple[int, bool]] = {}
        self._on_admitted: List[Callable[[int, Optional[int]], None]] = []
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
        for shard, inner in node.stacks().items():
            for peer in inner.config.remote_names():
                self._breaker((peer, shard))
        node.on_peer_dead(self._on_peer_dead)
        self._pump_timer = self.sim.call_later(pump_interval_s, self._pump)

    # ------------------------------------------------------------------ wiring
    def _on_peer_dead(self, peer: str, shard: Optional[int]) -> None:
        self._breaker((peer, shard)).trip()

    def _breaker(self, key: BreakerKey) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            peer, shard = key
            label = peer if shard is None else f"{peer}/s{shard}"
            breaker = CircuitBreaker(
                self.sim.clock,
                label=label,
                failure_threshold=self.breaker_failure_threshold,
                cooldown_s=self.breaker_cooldown_s,
            )
            breaker.on_transition = self._trace_transition
            self._breakers[key] = breaker
        return breaker

    def _trace_transition(self, breaker: CircuitBreaker, old: str, new: str) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                self.name, f"breaker.{new}", peer=breaker.label, was=old
            )

    def on_admitted(self, fn: Callable[[int, Optional[int]], None]) -> None:
        """Subscribe to admissions: ``fn(seq, shard)`` after each send
        the controller performed (``shard`` is None on unsharded nodes)."""
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
        return open_count < self.breaker_open_fraction * len(self._breakers)

    def submit(
        self, payload, meta=None, *, key=None, shard: Optional[int] = None
    ) -> AdmissionOutcome:
        """Offer one message; admit, queue, or shed it.

        Returns the outcome: ``"sent"`` with the sequence number when a
        token was available and the send went through; ``"queued"`` when
        the message waits its turn in the bounded queue (the pump drains
        it at the token rate); ``"shed"`` when it was refused — by the
        breaker gate, or by the shed policy on a full queue.  A shed
        message was *never* admitted; a queued one is not admitted until
        the pump sends it.
        """
        if self._closed:
            raise StabilizerError("admission controller is closed")
        self.offered += 1
        if not self.gate_open():
            return self._shed_new(None, "breaker")
        entry = _Entry(payload, meta, key, shard)
        if not self._queue and self.bucket.take():
            try:
                seq = self._admit(entry)
            except BackpressureError:
                self.bucket.refund()
                return self._enqueue(entry)
            return AdmissionOutcome("sent", seq, "")
        return self._enqueue(entry)

    def _enqueue(self, entry: _Entry) -> AdmissionOutcome:
        if len(self._queue) >= self.queue_limit:
            if self.shed_policy == "reject_new":
                return self._shed_new(entry, "queue_full")
            oldest = self._queue.popleft()
            self._shed_entry(oldest, "drop_oldest")
        self._queue.append(entry)
        if len(self._queue) > self.queue_peak:
            self.queue_peak = len(self._queue)
        return AdmissionOutcome("queued", None, "")

    def _shed_new(self, entry: Optional[_Entry], reason: str) -> AdmissionOutcome:
        if entry is not None:
            self._shed_entry(entry, reason)
        else:
            self._count_shed(reason, admitted=False)
        return AdmissionOutcome("shed", None, reason)

    def _shed_entry(self, entry: _Entry, reason: str) -> None:
        self._count_shed(reason, admitted=entry.admitted)

    def _count_shed(self, reason: str, admitted: bool) -> None:
        self.shed += 1
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        if admitted:
            # Structurally unreachable: only never-admitted queue entries
            # are ever shed.  Counted anyway so chaos invariant 13 audits
            # the claim instead of trusting it.
            self.admitted_shed += 1
        if self.tracer.enabled:
            self.tracer.emit(
                self.name, "admission.shed", reason=reason, queued=len(self._queue)
            )

    def _admit(self, entry: _Entry) -> int:
        """Perform the send for an entry that holds a token."""
        self._in_admit = True
        try:
            if hasattr(self.node, "shards"):
                seq = self.node.send(
                    entry.payload, entry.meta, key=entry.key, shard=entry.shard
                )
            else:
                seq = self.node.send(entry.payload, entry.meta)
        finally:
            self._in_admit = False
        entry.admitted = True
        self.admitted += 1
        shard = self._resolve_shard(entry)
        for fn in self._on_admitted:
            fn(seq, shard)
        return seq

    def _resolve_shard(self, entry: _Entry) -> Optional[int]:
        shard_map = getattr(self.node, "shard_map", None)
        if shard_map is None:
            return None
        if entry.shard is not None:
            return entry.shard
        if entry.key is not None:
            return shard_map.shard_of(entry.key)
        owned = self.node.owned_shards
        return owned[0] if owned else None

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
        self._pump_timer = self.sim.call_later(self.pump_interval_s, self._pump)
        self._poll_breakers()
        while self._queue and self.gate_open() and self.bucket.take():
            entry = self._queue.popleft()
            try:
                self._admit(entry)
            except (BackpressureError, StabilizerError):
                # The send path refused (buffer full / shard frozen):
                # the entry stays un-admitted at the head of the queue
                # and the pump retries next tick.  Never shed — it was
                # offered in good faith and the refusal is transient.
                self.bucket.refund()
                self._queue.appendleft(entry)
                self.requeues += 1
                break

    def _poll_breakers(self) -> None:
        for shard, inner in self.node.stacks().items():
            health: Dict[str, bool] = {}
            for (peer, chan_name), chan in inner.endpoint.channels().items():
                slot = (shard, peer, chan_name)
                seen_rtx, seen_stalled = self._chan_seen.get(slot, (0, False))
                stalled = inner.dataplane.window_stalled(peer)
                unhealthy = (
                    chan.retransmissions > seen_rtx
                    or chan.suspended
                    # One stall is routine flow control; a peer's stream
                    # still stalled a full poll later is not draining.
                    or (stalled and seen_stalled)
                )
                self._chan_seen[slot] = (chan.retransmissions, stalled)
                health[peer] = health.get(peer, True) and not unhealthy
            for peer, healthy in health.items():
                breaker = self._breaker((peer, shard))
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
