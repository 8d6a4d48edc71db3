"""A reliable, lossless-FIFO channel between one ordered pair of nodes.

The data plane requires "a basic reliability mechanism that ensures
lossless FIFO delivery" (Section I).  This channel provides it over the
possibly-lossy link model:

- the sender numbers frames with a transport sequence;
- the receiver delivers in order, buffering out-of-order arrivals;
- cumulative ACKs flow back every :data:`ACK_EVERY` frames or
  :data:`ACK_INTERVAL_S` seconds, releasing the sender's retransmission
  buffer;
- a go-back-N retransmit fires when no progress happens within the
  retransmission timeout.

The channel has no send window and no send queue: ``send`` puts the
frame on the link at once.  How many bytes may be in flight to a peer is
the data plane's decision (``window_bytes``); it reads
:meth:`FifoChannel.unacked_bytes` before it cuts a frame, and
``on_window_open`` — fired by every ACK that retires frames — tells it
when credits came back.

The retransmission timeout is *adaptive* (Jacobson/Karn): ACKed frames
that were never retransmitted contribute RTT samples to an EWMA estimator
(``srtt``/``rttvar``), and the base timeout is ``srtt + 4·rttvar`` clamped
to ``[min_rto, max_rto]`` (it starts at :data:`INITIAL_RTO_S`).
Consecutive unproductive retransmissions back off exponentially (by
:data:`RETRANSMIT_BACKOFF` each), and after ``max_retransmit_attempts``
of them the channel *suspends* — it stops the retry timer and surfaces a
dead-peer report to the endpoint instead of retrying silently forever.  A
suspended channel keeps its unacknowledged frames; any later sign of life
from the peer (an ACK, or any packet observed by the endpoint) revives
it, which retransmits everything outstanding — so a healed partition or a
restarted peer catches up without losing a single frame.

With loss-free links (the default in the paper's experiments) the overhead
is one periodic timer and occasional tiny ACK frames.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.errors import TransportError
from repro.transport.messages import Payload, payload_length

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transport.endpoint import TransportEndpoint

DeliverFn = Callable[[Payload, object], None]  # (payload, meta)

TRANSPORT_HEADER_BYTES = 24  # seq + channel id + flags, matching messages.py scale
ACK_FRAME_BYTES = 20

# The receiver acknowledges every ACK_EVERY in-order frames, and at most
# ACK_INTERVAL_S after the first frame it has not acknowledged yet.
ACK_EVERY = 32
ACK_INTERVAL_S = 0.05
# The base RTO before the first RTT sample, and the factor each
# consecutive unproductive retransmission multiplies it by.
INITIAL_RTO_S = 0.5
RETRANSMIT_BACKOFF = 2.0
# RTO granularity: rttvar collapses to ~0 on jitter-free virtual links,
# and an RTO equal to the RTT would retransmit on every ack delay.
RTO_GRANULE_S = 0.01


class _OutFrame:
    __slots__ = ("seq", "payload", "size", "meta", "sent_at", "retransmitted")

    def __init__(self, seq: int, payload: Payload, size: int, meta):
        self.seq = seq
        self.payload = payload
        self.size = size
        self.meta = meta
        self.sent_at = 0.0
        self.retransmitted = False


class FifoChannel:
    """One direction of a reliable stream; see module docstring.

    Built by :class:`~repro.transport.endpoint.TransportEndpoint` for a
    name it accepted; both ends share the channel ``name``.
    """

    def __init__(
        self,
        endpoint: "TransportEndpoint",
        peer: str,
        name: str,
        on_deliver: DeliverFn,
        min_rto: float = 0.05,
        max_rto: float = 5.0,
        max_retransmit_attempts: Optional[int] = None,
    ):
        if min_rto <= 0 or max_rto < min_rto:
            raise TransportError("need 0 < min_rto <= max_rto")
        if max_retransmit_attempts is not None and max_retransmit_attempts <= 0:
            raise TransportError("max_retransmit_attempts must be positive")
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.local = endpoint.node_name
        # Frames and ACKs go straight onto the link to the peer, on the
        # endpoint's port.
        self.link = endpoint.net.link(self.local, peer)
        self.port = endpoint.port
        self.peer = peer
        self.name = name
        # An RTO below the peer's delayed-ack window would retransmit on
        # every ack delay.
        self.min_rto = max(min_rto, 2.0 * ACK_INTERVAL_S)
        self.max_rto = max_rto
        self.max_retransmit_attempts = max_retransmit_attempts

        self.on_deliver = on_deliver
        # Fired (no arguments) by every ACK that retires frames; see
        # module docstring.
        self.on_window_open: Optional[Callable[[], None]] = None
        self.closed = False
        # Suspended: the retry loop concluded the peer is dead (see module
        # docstring).  Frames are retained and sends still transmit — they
        # double as probes — but no timer burns until a sign of life.
        self.suspended = False
        # Stream epoch: stamped into every frame.  A restarted node's new
        # channel carries a later epoch; the receiver resets its stream
        # state on an epoch change (the TCP-connection-establishment
        # analogue, required for Section III-E recovery).  Virtual
        # creation time is monotone and deterministic.
        self.epoch = self.sim.now
        self._peer_epoch: Optional[float] = None

        # Sender state: every frame sent and not yet acknowledged.
        self._next_send_seq = 0
        self._unacked: Dict[int, _OutFrame] = {}
        self._unacked_bytes = 0
        self._lowest_unacked = 0
        self._retransmit_timer = None
        self._last_progress = 0.0
        self._attempts = 0  # consecutive unproductive retransmissions
        # RTT estimator (Jacobson); base RTO starts at INITIAL_RTO_S.
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._base_rto = min(max(INITIAL_RTO_S, self.min_rto), self.max_rto)

        # Receiver state.
        self._next_deliver_seq = 0
        self._ooo: Dict[int, _OutFrame] = {}
        self._since_ack = 0
        self._ack_timer = None
        self._ack_dirty = False

        # Counters for tests and benchmarks.
        self.frames_sent = 0
        self.frames_delivered = 0
        self.retransmissions = 0
        self.acks_sent = 0
        self.suspensions = 0
        self.revivals = 0
        self.rtt_samples = 0
        self.stream_resets = 0

    # -- sending ------------------------------------------------------------
    def send(self, payload: Payload, meta=None, wire_overhead: int = 0) -> int:
        """Put one frame on the link; returns its transport sequence number.

        ``wire_overhead`` adds encoding bytes beyond the payload itself
        (e.g. the per-message entry records of a coalesced batch frame)
        so the link is charged honest bandwidth.
        """
        if self.closed:
            raise TransportError(f"channel {self.name!r} is closed")
        seq = self._next_send_seq
        self._next_send_seq = seq + 1
        size = payload_length(payload) + TRANSPORT_HEADER_BYTES + wire_overhead
        frame = _OutFrame(seq, payload, size, meta)
        frame.sent_at = self.sim.now
        self._unacked[seq] = frame
        self._unacked_bytes += size
        self.link.send(
            self.port, ("data", self.name, seq, payload, meta, self.epoch), size
        )
        self.frames_sent += 1
        if self._retransmit_timer is None and not self.suspended:
            self._arm_retransmit()
        return seq

    def unacked_count(self) -> int:
        return len(self._unacked)

    def unacked_bytes(self) -> int:
        return self._unacked_bytes

    def _resend_unacked(self) -> None:
        """Go-back-N: put every unacked frame on the wire again, in order
        (Karn's rule: retransmitted frames stop contributing RTT samples)."""
        for seq in sorted(self._unacked):
            frame = self._unacked[seq]
            frame.retransmitted = True
            self.link.send(
                self.port,
                ("data", self.name, frame.seq, frame.payload, frame.meta, self.epoch),
                frame.size,
            )
            self.retransmissions += 1

    # -- retransmission ------------------------------------------------------
    def current_rto(self) -> float:
        """The effective timeout: the (possibly RTT-estimated) base RTO
        backed off exponentially by the consecutive-failure count."""
        rto = self._base_rto * (RETRANSMIT_BACKOFF ** self._attempts)
        return min(rto, self.max_rto)

    def srtt(self) -> Optional[float]:
        return self._srtt

    def _observe_rtt(self, sample: float) -> None:
        if sample < 0:
            return
        self.rtt_samples += 1
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        rto = self._srtt + max(4.0 * self._rttvar, RTO_GRANULE_S)
        self._base_rto = min(max(rto, self.min_rto), self.max_rto)

    def _arm_retransmit(self) -> None:
        self._last_progress = self.sim.now
        self._retransmit_timer = self.sim.call_later(
            self.current_rto(), self._check_retransmit
        )

    def _check_retransmit(self) -> None:
        self._retransmit_timer = None
        if self.closed or self.suspended or not self._unacked:
            return
        if self.sim.now - self._last_progress >= self.current_rto():
            self._attempts += 1
            if (
                self.max_retransmit_attempts is not None
                and self._attempts > self.max_retransmit_attempts
            ):
                self._suspend()
                return
            tracer = self.endpoint.tracer
            if tracer.enabled:
                tracer.emit(
                    self.local,
                    "transport.retransmit",
                    peer=self.peer,
                    channel=self.name,
                    frames=len(self._unacked),
                    attempt=self._attempts,
                )
            self._resend_unacked()
            self._last_progress = self.sim.now
        self._retransmit_timer = self.sim.call_later(
            self.current_rto(), self._check_retransmit
        )

    def _suspend(self) -> None:
        """Give up retrying: the peer looks dead.  Frames are retained.

        The dead-peer report is scoped to this channel's *endpoint* — and
        an endpoint is bound to one port, which under sharding is one
        shard stack (``transport.s<shard>``).  A report here suspends the
        peer only in this endpoint and its failure detector; co-owned
        shards whose links are healthy keep their own channels running
        (asymmetric partitions are per-link, so suspicion must be too).
        """
        self.suspended = True
        self.suspensions += 1
        if self.endpoint.tracer.enabled:
            self.endpoint.tracer.emit(
                self.local, "transport.suspend", peer=self.peer,
                channel=self.name, port=self.endpoint.port,
            )
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer = None
        self.endpoint._channel_suspended(self)

    def revive(self) -> None:
        """Resume a suspended channel: the peer showed signs of life.

        Retransmits everything outstanding immediately and re-arms the
        retry timer from a clean backoff state.  No-op unless suspended.
        """
        if self.closed or not self.suspended:
            return
        self.suspended = False
        self.revivals += 1
        self._attempts = 0
        self.endpoint._channel_revived(self)
        if self.endpoint.tracer.enabled:
            self.endpoint.tracer.emit(
                self.local,
                "transport.revive",
                peer=self.peer,
                channel=self.name,
                port=self.endpoint.port,
                frames=len(self._unacked),
            )
        self._resend_unacked()
        if self._unacked and self._retransmit_timer is None:
            self._arm_retransmit()

    def reset_stream(self) -> None:
        """Restart the send direction as a brand-new stream.

        Bumps the epoch (so the receiver resets on the next frame), drops
        every outstanding frame and restarts sequence numbering from 0.
        Used by crash-restart catch-up: a peer replaying its buffer to a
        restarted node must not make the fresh receiver wait for transport
        sequence numbers that died with the old incarnation.
        """
        if self.closed:
            raise TransportError(f"channel {self.name!r} is closed")
        # Strictly greater than any epoch this channel ever used, even when
        # the reset happens in the same virtual instant as creation.
        self.epoch = max(self.sim.now, self.epoch + 1e-9)
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer = None
        if self.suspended:
            self.suspended = False
            self.endpoint._channel_revived(self)
        self._next_send_seq = 0
        self._lowest_unacked = 0
        self._unacked.clear()
        self._unacked_bytes = 0
        self._attempts = 0
        self.stream_resets += 1
        if self.endpoint.tracer.enabled:
            self.endpoint.tracer.emit(
                self.local, "transport.reset", peer=self.peer, channel=self.name
            )

    def _handle_ack(
        self, cumulative_seq: int, epoch: Optional[float] = None
    ) -> None:
        if self.closed:
            return
        if epoch is not None and epoch != self.epoch:
            return  # an ack for a previous incarnation of this stream
        progressed = False
        now = self.sim.now
        while self._lowest_unacked <= cumulative_seq:
            frame = self._unacked.pop(self._lowest_unacked, None)
            if frame is not None:
                self._unacked_bytes -= frame.size
                progressed = True
                if not frame.retransmitted:
                    self._observe_rtt(now - frame.sent_at)
            self._lowest_unacked += 1
        if progressed:
            self._attempts = 0
            self._last_progress = now
        if self.suspended:
            # Any ack — even a duplicate — proves the peer is alive.
            self.revive()
        if not self._unacked and self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer = None
        if progressed and self.on_window_open is not None:
            # Credits came back: the layer above may cut fresh frames.
            self.on_window_open()

    # -- receiving -----------------------------------------------------------
    def _handle_data(
        self, seq: int, payload: Payload, size: int, meta, epoch: float = 0.0
    ) -> None:
        if self.closed:
            return  # a torn-down node must not fire delivery callbacks
        if self._peer_epoch is None:
            self._peer_epoch = epoch
        elif epoch > self._peer_epoch:
            # The peer restarted with a fresh stream: reset receive state.
            self._peer_epoch = epoch
            self._next_deliver_seq = 0
            self._ooo.clear()
            self._since_ack = 0
        elif epoch < self._peer_epoch:
            return  # a stale frame from before the peer's restart
        if seq < self._next_deliver_seq:
            # A duplicate: re-ack so the sender unblocks.
            self._ack_dirty = True
            if self._ack_timer is None:
                self._ack_timer = self.sim.call_later(
                    ACK_INTERVAL_S, self._ack_tick
                )
            return
        ooo = self._ooo
        if seq == self._next_deliver_seq and not ooo:
            # In order with nothing buffered: no reorder-buffer round trip.
            self._next_deliver_seq = seq + 1
            self.frames_delivered += 1
            self.on_deliver(payload, meta)
        else:
            ooo[seq] = _OutFrame(seq, payload, size, meta)
            while self._next_deliver_seq in ooo:
                frame = ooo.pop(self._next_deliver_seq)
                self._next_deliver_seq += 1
                self.frames_delivered += 1
                self.on_deliver(frame.payload, frame.meta)
        # An ACK is now due within ACK_INTERVAL_S (the timer is armed
        # after delivery, which keeps it in its place in event order).
        self._since_ack += 1
        self._ack_dirty = True
        if self._ack_timer is None:
            self._ack_timer = self.sim.call_later(ACK_INTERVAL_S, self._ack_tick)
        if self._since_ack >= ACK_EVERY:
            self._send_ack()

    def _ack_tick(self) -> None:
        self._ack_timer = None
        if self._ack_dirty and not self.closed:
            self._send_ack()

    def _send_ack(self) -> None:
        self._ack_dirty = False
        self._since_ack = 0
        self.acks_sent += 1
        if self.endpoint.tracer.enabled:
            self.endpoint.tracer.emit(
                self.local,
                "transport.ack",
                peer=self.peer,
                channel=self.name,
                cumulative=self._next_deliver_seq - 1,
            )
        self.link.send(
            self.port,
            ("ack", self.name, self._next_deliver_seq - 1, self._peer_epoch),
            ACK_FRAME_BYTES,
        )

    # -- teardown ------------------------------------------------------------
    def close(self) -> None:
        """Cancel every armed timer; a closed channel neither transmits
        nor fires callbacks into the (possibly torn-down) node."""
        self.closed = True
        if self._retransmit_timer is not None:
            self._retransmit_timer.cancel()
            self._retransmit_timer = None
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        if self.suspended:
            self.suspended = False
            self.endpoint._channel_revived(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "suspended" if self.suspended else "closed" if self.closed else "up"
        return (
            f"<FifoChannel {self.local}->{self.peer} {self.name!r} {state} "
            f"sent={self.frames_sent} unacked={len(self._unacked)}>"
        )
