"""Directed link model: serialization bandwidth + propagation latency.

A packet of S bytes entering a link with bandwidth B (bits/s) and one-way
latency L experiences:

- queueing delay: it waits until the transmitter finishes every packet ahead
  of it (FIFO; we track ``busy_until``);
- serialization delay: ``S * 8 / B`` seconds on the wire;
- propagation delay: ``L`` seconds (plus optional jitter).

This produces the behaviour the paper's evaluation leans on: below the
bandwidth limit latency is flat at roughly L; above it the queue grows
without bound and latency "rises sharply" (Fig. 7), and large bursts create
the spikes of Fig. 5.

A link is a queue, not one timer per packet.  With a fixed latency the
packets in flight arrive in the order they were sent, so the link threads
them into a list (``Packet.next``) and only its head has an entry on the
simulator's heap; the head's arrival arms the next.  Each packet reserves
its event sequence number when it is sent, so the simulator runs every
arrival at the same point of its event order as a heap entry per packet
would.  A packet due before the list's tail — jitter, or a
:meth:`Link.reshape` that shortened the latency — goes on the heap on its
own instead.  Link, host and port checks are made at arrival, so a link
taken down or a target crashed with packets in flight drops them there.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import Optional

from repro.errors import NetworkError
from repro.net.host import Host
from repro.net.packet import Packet, Port
from repro.sim.kernel import Simulator, TimerHandle


class LinkStats:
    """Running totals a link keeps about itself."""

    __slots__ = ("packets_sent", "packets_dropped", "bytes_sent", "max_backlog_bytes")

    def __init__(self) -> None:
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0
        self.max_backlog_bytes = 0


class Link:
    """One directed link from a ``source`` host to a ``target`` host.

    :meth:`send` is the whole way of a packet into the network: the
    transport's channels and datagrams hold the link to each peer and
    call it directly (:meth:`Network.send
    <repro.net.topology.Network.send>` is the by-name lookup for
    everything else).
    """

    def __init__(
        self,
        sim: Simulator,
        source: Host,
        target: Host,
        latency_s: float,
        bandwidth_bps: float,
        jitter_s: float = 0.0,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        src, dst = source.name, target.name
        if latency_s < 0:
            raise NetworkError(f"negative latency on {src}->{dst}")
        if bandwidth_bps <= 0:
            raise NetworkError(f"non-positive bandwidth on {src}->{dst}")
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError(f"loss rate must be in [0, 1): {loss_rate}")
        if (jitter_s > 0 or loss_rate > 0) and rng is None:
            raise NetworkError("jitter/loss require an rng stream")
        self.sim = sim
        self.source = source
        self.target = target
        self.src = src
        self.dst = dst
        self.latency_s = latency_s
        self.bandwidth_bps = float(bandwidth_bps)
        self.jitter_s = jitter_s
        self.loss_rate = loss_rate
        self.rng = rng
        self.up = True
        self.stats = LinkStats()
        self._busy_until = 0.0
        self._backlog_bytes = 0
        # The last packet of the in-order list in flight (see module
        # docstring); its head is the one with a heap entry.
        self._tail: Optional[Packet] = None

    # -- inspection ----------------------------------------------------------
    def backlog_bytes(self) -> int:
        """Bytes queued or on the wire right now (sender-side view)."""
        return self._backlog_bytes

    def queueing_delay(self) -> float:
        """Seconds a packet submitted now would wait before serialization."""
        return max(0.0, self._busy_until - self.sim.now)

    # -- transmission ----------------------------------------------------------
    def send(self, port: Port, payload, size_bytes: int) -> bool:
        """Put one packet of ``size_bytes`` on the link; on arrival it goes
        to the target host's handler for ``port``.

        Returns False when nothing was sent: the source host is crashed
        (it emits nothing), or the link is down or randomly loses the
        packet (both counted as drops).  Reliability is the transport's
        job.
        """
        if self.source.crashed:
            return False
        stats = self.stats
        if not self.up:
            stats.packets_dropped += 1
            return False
        if self.loss_rate > 0 and self.rng.random() < self.loss_rate:
            stats.packets_dropped += 1
            return False

        # Every packet of every layer passes here: the queueing and
        # serialization arithmetic of the methods above, written out.
        sim = self.sim
        now = sim.now
        busy_until = self._busy_until
        start = now if now > busy_until else busy_until
        done_serializing = start + size_bytes * 8.0 / self.bandwidth_bps
        propagation = self.latency_s
        if self.jitter_s > 0:
            propagation += self.rng.uniform(0, self.jitter_s)
        due = done_serializing + propagation
        # The arrival's place in the event order is taken now, as a
        # heap entry of its own would take it.
        sim._seq = seq = sim._seq + 1
        packet = Packet(self.src, self.dst, port, payload, size_bytes, due, seq)
        size = packet.size_bytes
        self._busy_until = done_serializing

        backlog = self._backlog_bytes = self._backlog_bytes + size
        if backlog > stats.max_backlog_bytes:
            stats.max_backlog_bytes = backlog
        stats.packets_sent += 1
        stats.bytes_sent += size

        tail = self._tail
        if tail is None:
            self._tail = packet
            heappush(sim._heap, TimerHandle((due, seq, self._arrive, (packet, True))))
        elif due >= tail.due:
            tail.next = self._tail = packet
        else:
            heappush(sim._heap, TimerHandle((due, seq, self._arrive, (packet, False))))
        return True

    def _arrive(self, packet: Packet, queued: bool) -> None:
        # The one Python frame between the event loop and the port
        # handler: the next packet of the list is armed, and link, host
        # and port checks are all made here.
        if queued:
            following = packet.next
            if following is None:
                self._tail = None
            else:
                packet.next = None
                heappush(
                    self.sim._heap,
                    TimerHandle(
                        (following.due, following.seq, self._arrive, (following, True))
                    ),
                )
        size = packet.size_bytes
        self._backlog_bytes -= size
        if not self.up:
            # Link went down while the packet was in flight.
            self.stats.packets_dropped += 1
            return
        dst = self.target
        if dst.crashed:
            return  # a crashed host silently drops everything
        handler = dst._handlers.get(packet.port)
        if handler is None:
            port = packet.port
            if type(port) is tuple:
                # A channel key with no channel behind it (yet): the
                # packet goes to the endpoint's own port, its first item.
                port = port[0]
                handler = dst._handlers.get(port)
            if handler is None:
                if port in dst._closed:
                    return  # a straggler to a closed port, like a closed socket's
                raise NetworkError(
                    f"host {dst.name!r} has no handler bound for port "
                    f"{packet.port!r}"
                )
        dst.packets_received += 1
        dst.bytes_received += size
        handler(packet)

    # -- dynamic control -------------------------------------------------------
    def set_up(self, up: bool) -> None:
        """Bring the link up/down (used for partitions and crash tests)."""
        self.up = up

    def reshape(
        self,
        latency_s: Optional[float] = None,
        bandwidth_bps: Optional[float] = None,
    ) -> None:
        """Change shaping parameters at runtime, like re-running ``tc``."""
        if latency_s is not None:
            if latency_s < 0:
                raise NetworkError("negative latency")
            self.latency_s = latency_s
        if bandwidth_bps is not None:
            if bandwidth_bps <= 0:
                raise NetworkError("non-positive bandwidth")
            self.bandwidth_bps = float(bandwidth_bps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.src}->{self.dst} {self.latency_s * 1e3:.2f}ms "
            f"{self.bandwidth_bps / 1e6:.1f}Mbit/s>"
        )
