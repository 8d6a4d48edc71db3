"""A host: the endpoint that receives packets and dispatches by port."""

from __future__ import annotations

from typing import Callable, Dict, Set

from repro.net.packet import Packet

Handler = Callable[[Packet], None]


class Host:
    """A named endpoint on the network.

    Protocol layers register a handler per *port* (an arbitrary string such
    as ``"stabilizer"`` or ``"paxos"``).  A crashed host silently drops
    everything, which is exactly what a remote peer observes; so does a
    port that :meth:`unbind` closed, like a closed socket.  The arriving
    link dispatches (:meth:`repro.net.link.Link.send`): it reads
    ``crashed`` and the port table and keeps the receive counters here.
    """

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index
        self.crashed = False
        self._handlers: Dict[str, Handler] = {}
        # Ports a handler was unbound from: packets still in flight to
        # one are dropped, not an error.
        self._closed: Set[str] = set()
        self.packets_received = 0
        self.bytes_received = 0

    def bind(self, port: str, handler: Handler) -> None:
        """Register ``handler`` for ``port``; rebinding replaces it."""
        self._handlers[port] = handler
        self._closed.discard(port)

    def unbind(self, port: str) -> None:
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
