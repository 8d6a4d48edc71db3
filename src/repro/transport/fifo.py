"""A reliable, lossless-FIFO channel between one ordered pair of nodes.

The data plane requires "a basic reliability mechanism that ensures
lossless FIFO delivery" (Section I).  This channel provides it over the
possibly-lossy link model:

- the sender numbers frames with a transport sequence;
- the receiver delivers in order, buffering out-of-order arrivals;
- cumulative ACKs flow back every :data:`ACK_EVERY` frames, and at most
  ``ack_delay`` seconds after the first frame not yet acknowledged,
  releasing the sender's retransmission buffer;
- a go-back-N retransmit fires when no progress happens within the
  retransmission timeout.

ACK cadence per channel.  ``ack_delay`` is :data:`ACK_INTERVAL_S`
(50 ms) for every channel but the Stabilizer's data channel, whose ACK
is also the origin's ``received`` report: the data plane sets it to the
control plane's flush interval (``control_interval_s``), so the
ACK is due no later than the report it replaces.  Paxos, pub/sub and
the resume channel keep 50 ms.  Every ACK carries the receiving
consumer's ``ack_tag`` (the data plane's shard epoch; ``None``
elsewhere) so the sender can tell whether what it retired was taken or
fenced.

The channel has no send window and no send queue: ``send`` puts the
frame on the link at once, and the link's queue paces the stream.
``on_retired(meta, tag)`` — fired by every ACK that retires frames, with
the newest retired frame's meta and the ACK's tag — tells the consumer
how far the peer has taken the stream.

The retransmission timeout is *adaptive* (Jacobson/Karn): each ACK that
retires frames gives one RTT sample, from the newest frame it retires,
to an EWMA estimator (``srtt``/``rttvar``), as TCP takes one per ACK
(RFC 6298); and the base timeout is ``srtt + 4·rttvar`` clamped to
``[MIN_RTO_S, max_rto]`` (it starts at :data:`INITIAL_RTO_S`).  Karn's
rule goes by sequence: a go-back-N resend sends everything outstanding,
so it records the next sequence as a mark, and a retired frame below
the mark was resent and gives no sample.
Consecutive unproductive retransmissions back off exponentially (by
:data:`RETRANSMIT_BACKOFF` each), and after ``max_retransmit_attempts``
of them the channel *suspends* — it stops the retry timer and surfaces a
dead-peer report to the endpoint instead of retrying silently forever.  A
suspended channel keeps its unacknowledged frames; any later sign of life
from the peer (an ACK, or any packet observed by the endpoint) revives
it, which retransmits everything outstanding — so a healed partition or a
restarted peer catches up without losing a single frame.

The link hands the channel its peer's packets directly: the endpoint
binds each channel under its two :func:`channel_keys` (see
:mod:`repro.transport.endpoint`), and the sender addresses its frames and
ACKs to the keys of the peer's twin of the channel.  A sent frame is kept
as the wire tuple it went out as, and a retransmission resends that
tuple.

With loss-free links (the default in the paper's experiments) the overhead
is one periodic timer and occasional tiny ACK frames.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple, TYPE_CHECKING

from repro.errors import TransportError
from repro.transport.messages import Payload, payload_length

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transport.endpoint import TransportEndpoint

DeliverFn = Callable[[Payload, object], None]  # (payload, meta)

TRANSPORT_HEADER_BYTES = 24  # seq + channel id + flags, matching messages.py scale
# Cumulative seq + channel id + stream epoch (20), and the consumer's
# 4-byte ack tag.
ACK_FRAME_BYTES = 24

# The receiver acknowledges every ACK_EVERY in-order frames, and at most
# ack_delay (by default ACK_INTERVAL_S) after the first frame it has not
# acknowledged yet.
ACK_EVERY = 32
ACK_INTERVAL_S = 0.05
# The base RTO before the first RTT sample, and the factor each
# consecutive unproductive retransmission multiplies it by.
INITIAL_RTO_S = 0.5
RETRANSMIT_BACKOFF = 2.0
# RTO granularity: rttvar collapses to ~0 on jitter-free virtual links,
# and an RTO equal to the RTT would retransmit on every ack delay.
RTO_GRANULE_S = 0.01
# The RTO floor, twice the longest delayed-ack window (ACK_INTERVAL_S):
# an RTO below a peer's ack delay would retransmit on every ack delay.  A
# literal, not derived from the ack delay, so a channel that ACKs sooner
# (the data channel) does not quietly lower it.
MIN_RTO_S = 0.1


def channel_keys(port: str, name: str, sender: str) -> Tuple[tuple, tuple]:
    """The host ports on which the channel ``name`` of the endpoint on
    ``port`` receives from ``sender``: its data frames, and its ACKs."""
    return (port, name, sender), (port, name, sender, "ack")


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
        max_rto: float = 5.0,
        max_retransmit_attempts: Optional[int] = None,
        ack_delay: float = ACK_INTERVAL_S,
        ack_tag=None,
    ):
        if max_rto < MIN_RTO_S:
            raise TransportError(f"max_rto must be at least {MIN_RTO_S}")
        if ack_delay <= 0:
            raise TransportError("ack_delay must be positive")
        if max_retransmit_attempts is not None and max_retransmit_attempts <= 0:
            raise TransportError("max_retransmit_attempts must be positive")
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.local = endpoint.node_name
        # Frames and ACKs go straight onto the link to the peer, addressed
        # to the peer's twin of this channel: its keys name this end.
        self.link = endpoint.net.link(self.local, peer)
        self._data_port, self._ack_port = channel_keys(endpoint.port, name, self.local)
        self._suspended_peers = endpoint._suspended_peers
        self.peer = peer
        self.name = name
        self.max_rto = max_rto
        self.max_retransmit_attempts = max_retransmit_attempts

        self.on_deliver = on_deliver
        # Fired (meta of the newest retired frame, the ACK's tag) by every
        # ACK that retires frames; see module docstring.
        self.on_retired: Optional[Callable[[object, object], None]] = None
        # Called (meta of the newest frame it covers) by every ACK this
        # channel sends while tracing is on: the consumer's trace hook.
        self.on_ack_traced: Optional[Callable[[object], None]] = None
        self.ack_delay = ack_delay
        self.ack_tag = ack_tag
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

        # Sender state: every frame sent and not yet acknowledged, in
        # sequence order, as (the wire tuple handed to the link, its size,
        # send time).  A cumulative ACK retires a prefix.
        self._next_send_seq = 0
        self._unacked: Deque[Tuple[tuple, int, float]] = deque()
        # Karn's rule: every frame below this sequence was resent.
        self._resent_below = 0
        self._retransmit_timer = None
        self._last_progress = 0.0
        self._attempts = 0  # consecutive unproductive retransmissions
        # RTT estimator (Jacobson); base RTO starts at INITIAL_RTO_S.
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._base_rto = min(INITIAL_RTO_S, self.max_rto)

        # Receiver state.
        self._next_deliver_seq = 0
        self._ooo: Dict[int, Tuple[Payload, object]] = {}  # seq -> (payload, meta)
        self._since_ack = 0
        self._ack_timer = None
        self._ack_dirty = False
        self._delivered_meta = None  # the newest frame delivered in order

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
        wire = ("data", self.name, seq, payload, meta, self.epoch)
        self._unacked.append((wire, size, self.sim.now))
        self.link.send(self._data_port, wire, size)
        self.frames_sent += 1
        if self._retransmit_timer is None and not self.suspended:
            self._arm_retransmit()
        return seq

    def unacked_count(self) -> int:
        return len(self._unacked)

    def _resend_unacked(self) -> None:
        """Go-back-N: put every unacked frame on the wire again, in order
        (Karn's rule: none of them gives an RTT sample from now on)."""
        self._resent_below = self._next_send_seq
        link, port = self.link, self._data_port
        for wire, size, _sent_at in self._unacked:
            link.send(port, wire, size)
        self.retransmissions += len(self._unacked)

    # -- retransmission ------------------------------------------------------
    def current_rto(self) -> float:
        """The effective timeout: the (possibly RTT-estimated) base RTO
        backed off exponentially by the consecutive-failure count."""
        rto = self._base_rto * (RETRANSMIT_BACKOFF ** self._attempts)
        return min(rto, self.max_rto)

    def srtt(self) -> Optional[float]:
        return self._srtt

    def _observe_rtt(self, sample: float) -> None:
        self.rtt_samples += 1
        srtt = self._srtt
        if srtt is None:
            srtt = sample
            rttvar = sample / 2.0
        else:
            error = srtt - sample
            rttvar = 0.75 * self._rttvar + 0.25 * (error if error >= 0 else -error)
            srtt = 0.875 * srtt + 0.125 * sample
        self._srtt = srtt
        self._rttvar = rttvar
        spread = 4.0 * rttvar
        rto = srtt + (spread if spread > RTO_GRANULE_S else RTO_GRANULE_S)
        if rto < MIN_RTO_S:
            rto = MIN_RTO_S
        elif rto > self.max_rto:
            rto = self.max_rto
        self._base_rto = rto

    def _arm_retransmit(self) -> None:
        self._last_progress = self.sim.now
        self._retransmit_timer = self.sim.call_later(
            self.current_rto(), self._check_retransmit
        )

    def _check_retransmit(self) -> None:
        self._retransmit_timer = None
        if self.closed or self.suspended or not self._unacked:
            return
        # Compared as the timer was armed, at _last_progress + RTO:
        # now - _last_progress can round below the RTO.
        if self.sim.now >= self._last_progress + self.current_rto():
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
        self._resent_below = 0
        self._unacked.clear()
        self._attempts = 0
        self.stream_resets += 1
        if self.endpoint.tracer.enabled:
            self.endpoint.tracer.emit(
                self.local, "transport.reset", peer=self.peer, channel=self.name
            )

    # -- the link's handlers ---------------------------------------------------
    def _on_ack(self, packet) -> None:
        """An ACK from the peer; the link delivers it here directly."""
        if self.closed:
            return
        _, _, cumulative, epoch, tag = packet.payload
        if epoch == self.epoch:  # else an ack for a previous incarnation
            retired = None  # the newest record this ack retires
            unacked = self._unacked
            while unacked and unacked[0][0][2] <= cumulative:  # its wire's seq
                retired = unacked.popleft()
            if retired is not None:
                wire, _size, sent_at = retired
                now = self.sim.now
                self._attempts = 0
                self._last_progress = now
                # One RTT sample per ACK, from the newest frame it retires,
                # unless that frame was resent (Karn's rule).
                if wire[2] >= self._resent_below:  # its seq
                    self._observe_rtt(now - sent_at)
            if self.suspended:
                # Any ack — even a duplicate — proves the peer is alive.
                self.revive()
            if not self._unacked and self._retransmit_timer is not None:
                self._retransmit_timer.cancel()
                self._retransmit_timer = None
            if retired is not None and self.on_retired is not None:
                # The peer took the stream up to the newest retired frame.
                self.on_retired(wire[4], tag)  # its meta
        if self.peer in self._suspended_peers:
            self.endpoint.revive_peer(self.peer)

    def _on_data(self, packet) -> None:
        """A data frame from the peer; the link delivers it here directly,
        and the endpoint the first one before this channel existed."""
        if self.closed:
            return  # a torn-down node must not fire delivery callbacks
        if self.peer in self._suspended_peers:
            # Any packet from the peer proves it is alive.
            self.endpoint.revive_peer(self.peer)
        _, _, seq, payload, meta, epoch = packet.payload
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
        # An ACK is now due within ack_delay.  The timer is armed before
        # delivery, ahead of any the consumer arms for the same arrival:
        # on the data channel the ACK is the received report, and it
        # leaves before the reports the arrival batches.
        self._ack_dirty = True
        if self._ack_timer is None:
            self._ack_timer = self.sim.call_later(self.ack_delay, self._send_ack, True)
        if seq < self._next_deliver_seq:
            return  # a duplicate: the re-ack unblocks the sender
        ooo = self._ooo
        if seq == self._next_deliver_seq and not ooo:
            # In order with nothing buffered: no reorder-buffer round trip.
            self._next_deliver_seq = seq + 1
            self.frames_delivered += 1
            self._delivered_meta = meta
            self.on_deliver(payload, meta)
        else:
            ooo[seq] = (payload, meta)
            while self._next_deliver_seq in ooo:
                payload, meta = ooo.pop(self._next_deliver_seq)
                self._next_deliver_seq += 1
                self.frames_delivered += 1
                self._delivered_meta = meta
                self.on_deliver(payload, meta)
        self._since_ack += 1
        if self._since_ack >= ACK_EVERY:
            self._send_ack()

    def _send_ack(self, timer: bool = False) -> None:
        """Acknowledge the stream up to the newest frame delivered in order.
        The ACK timer calls it with ``timer``: it then sends only if a frame
        arrived since the last ACK."""
        if timer:
            self._ack_timer = None
            if not self._ack_dirty or self.closed:
                return
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
            if self.on_ack_traced is not None:
                self.on_ack_traced(self._delivered_meta)
        self.link.send(
            self._ack_port,
            (
                "ack", self.name, self._next_deliver_seq - 1, self._peer_epoch,
                self.ack_tag,
            ),
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
