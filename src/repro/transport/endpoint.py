"""Per-host transport endpoint: many named channels over one network port.

Every protocol in the reproduction (Stabilizer data plane, Paxos,
pub/sub) builds on named FIFO channels.  An endpoint owns the host's side
of every channel and demultiplexes incoming packets by channel name.

A name gets its consumer once: :meth:`TransportEndpoint.accept` registers
``on_deliver(peer, payload, meta)`` and the channel options for every
channel of that name, to any peer.  Each such channel is built on first
use — a local :meth:`~TransportEndpoint.channel` call or the peer's first
packet — with the consumer bound to its peer.  A packet for a name the
endpoint never accepted is dropped *unacknowledged*, so its sender keeps
retransmitting until the name is accepted: the stream loses nothing.

Beside the reliable channels the endpoint carries *datagrams*
(:meth:`TransportEndpoint.send_datagram` / ``on_datagram``): one raw
packet, no sequence number, no acknowledgment, no retransmission — it
may be lost, duplicated or overtaken.  The Stabilizer control carrier
ships its state reports this way (``docs/strategies.md``, "The carrier:
state, not a stream").

The endpoint is also where dead-peer reports surface: a channel that
exhausts its retransmit attempts suspends itself and the endpoint invokes
``on_peer_dead`` (the Stabilizer wires this into its failure detector).
Any packet later observed *from* that peer — data, ack, anything —
revives every suspended channel to it, so a healed partition resumes
without an explicit recovery message.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Set, Tuple

from repro.errors import TransportError
from repro.net.link import Link
from repro.net.topology import Network
from repro.obs.tracer import NULL_TRACER
from repro.transport.fifo import FifoChannel

TRANSPORT_PORT = "transport"

PeerDeadFn = Callable[[str, str], None]  # (peer, channel name)
DatagramFn = Callable[[str, object], None]  # (peer, body)
AcceptFn = Callable[[str, object, object], None]  # (peer, payload, meta)


class TransportEndpoint:
    """One node's attachment point to the reliable-transport layer."""

    def __init__(self, net: Network, node_name: str, port: str = TRANSPORT_PORT):
        self.net = net
        self.sim = net.sim
        self.node_name = node_name
        self.port = port
        self.closed = False
        self._channels: Dict[Tuple[str, str], FifoChannel] = {}
        self._suspended_peers: Set[str] = set()
        # Invoked (peer, channel_name) when a channel gives up retrying.
        self.on_peer_dead: Optional[PeerDeadFn] = None
        # Invoked (peer, body) for every datagram; unset, they are dropped.
        self.on_datagram: Optional[DatagramFn] = None
        # name -> (on_deliver, options) for channels built on first use.
        self._accepted: Dict[str, Tuple[AcceptFn, dict]] = {}
        # Observability: channels and the planes built on this endpoint
        # read the tracer from here.  The Stabilizer replaces it before
        # constructing its planes; standalone endpoints stay silent.
        self.tracer = NULL_TRACER
        # peer -> the link to it, for datagrams.
        self._links: Dict[str, Link] = {
            dst: link for (src, dst), link in net.links.items() if src == node_name
        }
        net.host(node_name).bind(port, self._on_packet)

    def channel(self, peer: str, name: str) -> FifoChannel:
        """Get or create the channel to ``peer`` named ``name``, a name
        registered with :meth:`accept`."""
        chan = self._channels.get((peer, name))
        if chan is None:
            chan = self._open(peer, name)
            if chan is None:
                raise TransportError(f"channel {name!r} was never accepted")
        return chan

    def accept(self, name: str, on_deliver: AcceptFn, **options) -> None:
        """Make ``name`` a channel name here: every channel of it, to any
        peer, is built on first use with ``options`` and delivers to
        ``on_deliver(peer, payload, meta)``.  Once per name."""
        if name in self._accepted:
            raise TransportError(f"channel {name!r} is already accepted")
        self._accepted[name] = (on_deliver, options)

    def _open(self, peer: str, name: str) -> Optional[FifoChannel]:
        """Build the channel to ``peer`` of an accepted ``name`` (None if
        the name was never accepted)."""
        if peer == self.node_name:
            raise TransportError("no loopback channels; deliver locally instead")
        accepted = self._accepted.get(name)
        if accepted is None:
            return None
        on_deliver, options = accepted
        chan = FifoChannel(self, peer, name, partial(on_deliver, peer), **options)
        self._channels[(peer, name)] = chan
        return chan

    def send_datagram(self, peer: str, body, size_bytes: int) -> None:
        """Ship ``body`` to ``peer``'s ``on_datagram`` as one unreliable
        packet of ``size_bytes`` (see module docstring)."""
        self._links[peer].send(self.port, ("dgram", body), size_bytes)

    def channels(self) -> Dict[Tuple[str, str], FifoChannel]:
        return dict(self._channels)

    def revive_peer(self, peer: str) -> None:
        """Revive every suspended channel to ``peer`` (e.g. on an
        out-of-band sign of life such as a failure-detector recovery)."""
        for (p, _name), chan in list(self._channels.items()):
            if p == peer and chan.suspended:
                chan.revive()

    def close(self) -> None:
        """Close every channel and unbind from the network.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        for chan in self._channels.values():
            chan.close()
        self.net.host(self.node_name).unbind(self.port)

    # -- wiring ---------------------------------------------------------------
    def _channel_suspended(self, chan: FifoChannel) -> None:
        self._suspended_peers.add(chan.peer)
        if self.on_peer_dead is not None:
            self.on_peer_dead(chan.peer, chan.name)

    def _channel_revived(self, chan: FifoChannel) -> None:
        if not any(
            c.suspended for (p, _n), c in self._channels.items() if p == chan.peer
        ):
            self._suspended_peers.discard(chan.peer)

    def _on_packet(self, packet) -> None:
        if self.closed:
            return
        frame = packet.payload
        kind = frame[0]
        if kind == "data":
            _, name, seq, payload, meta, epoch = frame
            # One lookup; a channel is built only on first use.  A name
            # never accepted opens none: the frame goes unacknowledged
            # and its sender retransmits it.
            chan = self._channels.get((packet.src, name)) or self._open(
                packet.src, name
            )
            if chan is not None:
                chan._handle_data(seq, payload, packet.size_bytes, meta, epoch)
        elif kind == "dgram":
            if self.on_datagram is not None:
                self.on_datagram(packet.src, frame[1])
        elif kind == "ack":
            _, name, cumulative, epoch = frame
            # No channel: this endpoint never sent on the name.
            chan = self._channels.get((packet.src, name))
            if chan is not None:
                chan._handle_ack(cumulative, epoch)
        else:
            raise TransportError(f"unknown transport frame kind: {kind!r}")
        # Any packet from a peer with suspended channels proves it is alive.
        if packet.src in self._suspended_peers:
            self.revive_peer(packet.src)
