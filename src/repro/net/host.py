"""A host: the endpoint that receives packets and dispatches by port."""

from __future__ import annotations

from typing import Callable, Dict, Set

from repro.net.packet import Packet, Port

Handler = Callable[[Packet], None]


class Host:
    """A named endpoint on the network.

    Protocol layers register a handler per *port* (an arbitrary string such
    as ``"stabilizer"`` or ``"paxos"``).  A port may also be a tuple whose
    first item is such a string: the transport binds each channel under
    keys like ``(port, name, peer)``, and a packet to a tuple with no
    handler goes to the handler of its first item.  A crashed host
    silently drops everything, which is exactly what a remote peer
    observes; so does a port that :meth:`unbind` closed, like a closed
    socket.  The arriving link dispatches (:meth:`repro.net.link.Link.send`):
    it reads ``crashed`` and the port table and keeps the receive counters
    here.
    """

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index
        self.crashed = False
        self._handlers: Dict[Port, Handler] = {}
        # Ports a handler was unbound from: packets still in flight to
        # one are dropped, not an error.
        self._closed: Set[Port] = set()
        self.packets_received = 0
        self.bytes_received = 0

    def bind(self, port: Port, handler: Handler) -> None:
        """Register ``handler`` for ``port``; rebinding replaces it."""
        self._handlers[port] = handler
        self._closed.discard(port)

    def unbind(self, port: Port) -> None:
        """Close ``port``: from now on what arrives there is dropped."""
        if self._handlers.pop(port, None) is not None:
            self._closed.add(port)

    def crash(self) -> None:
        """Stop receiving; in-flight and future packets are dropped."""
        self.crashed = True

    def recover(self) -> None:
        """Resume receiving (handlers survive the crash)."""
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"<Host {self.name} #{self.index} {state}>"
