"""Per-host transport endpoint: many named channels over one network port.

Every protocol in the reproduction (Stabilizer data plane, Paxos,
pub/sub) builds on named FIFO channels.  An endpoint owns the host's side
of every channel and demultiplexes incoming packets by channel name.

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

from typing import Callable, Dict, Optional, Set, Tuple

from repro.errors import TransportError
from repro.net.link import Link
from repro.net.topology import Network
from repro.obs.tracer import NULL_TRACER
from repro.transport.fifo import DeliverFn, FifoChannel

TRANSPORT_PORT = "transport"

PeerDeadFn = Callable[[str, str], None]  # (peer, channel name)
DatagramFn = Callable[[str, object], None]  # (peer, body)


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
        # name -> (on_deliver, kwargs) for channels created on first use.
        self._accepted: Dict[str, Tuple[Optional[DeliverFn], dict]] = {}
        # Observability: channels and the planes built on this endpoint
        # read the tracer from here.  The Stabilizer replaces it before
        # constructing its planes; standalone endpoints stay silent.
        self.tracer = NULL_TRACER
        # peer -> the link to it, for datagrams.
        self._links: Dict[str, Link] = {
            dst: link for (src, dst), link in net.links.items() if src == node_name
        }
        net.host(node_name).bind(port, self._on_packet)

    def channel(self, peer: str, name: str, **kwargs) -> FifoChannel:
        """Get or create the channel to ``peer`` named ``name``.

        Keyword arguments (``rto``, ``ack_every``, ``ack_interval``, the
        adaptive-RTO knobs, ...) apply only at creation time; without
        any, a name registered with :meth:`accept` uses that registration.
        """
        if peer == self.node_name:
            raise TransportError("no loopback channels; deliver locally instead")
        key = (peer, name)
        chan = self._channels.get(key)
        if chan is None:
            on_deliver = None
            if not kwargs and name in self._accepted:
                on_deliver, kwargs = self._accepted[name]
            chan = FifoChannel(self, peer, name, **kwargs)
            chan.on_deliver = on_deliver
            self._channels[key] = chan
        elif kwargs:
            raise TransportError(
                f"channel {name!r} to {peer} already exists; cannot re-configure"
            )
        return chan

    def accept(self, name: str, on_deliver: DeliverFn, **kwargs) -> None:
        """Channels named ``name`` come into being on first use — a local
        :meth:`channel` call or a peer's first packet — built with
        ``kwargs`` and delivering to ``on_deliver``.  For rare traffic
        that does not justify a standing channel per peer."""
        self._accepted[name] = (on_deliver, kwargs)

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
            # One lookup; channel() only builds a channel on first use.
            chan = self._channels.get((packet.src, name))
            if chan is None:
                chan = self.channel(packet.src, name)
            chan._handle_data(seq, payload, packet.size_bytes, meta, epoch)
        elif kind == "dgram":
            if self.on_datagram is not None:
                self.on_datagram(packet.src, frame[1])
        elif kind == "ack":
            _, name, cumulative, epoch = frame
            chan = self._channels.get((packet.src, name))
            if chan is None:
                chan = self.channel(packet.src, name)
            chan._handle_ack(cumulative, epoch)
        else:
            raise TransportError(f"unknown transport frame kind: {kind!r}")
        # Any packet from a peer with suspended channels proves it is alive.
        if packet.src in self._suspended_peers:
            self.revive_peer(packet.src)
