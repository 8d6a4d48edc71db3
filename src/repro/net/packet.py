"""The unit of transmission on a simulated link."""

from __future__ import annotations

from typing import Any, Optional, Tuple, Union

#: A host port: a name, or a transport channel's key — a tuple whose
#: first item is the name of its endpoint's port.
Port = Union[str, Tuple[str, ...]]


class Packet:
    """One packet travelling from ``src`` to ``dst``.

    ``payload`` is an arbitrary Python object (the transport layer puts a
    frame here); only ``size_bytes`` matters to the network model.  ``port``
    selects the handler on the destination host, so several protocols
    (Stabilizer, Paxos, pub/sub) can share one network, and a transport
    endpoint can hand each channel its own packets.

    ``due`` and ``seq`` are the packet's arrival event, as the simulator
    orders events: its virtual arrival time and the sequence number
    reserved when it was sent.  ``next`` threads the packets in flight
    on one link in arrival order (see :class:`repro.net.link.Link`).
    """

    __slots__ = ("src", "dst", "port", "payload", "size_bytes", "due", "seq", "next")

    def __init__(
        self,
        src: str,
        dst: str,
        port: Port,
        payload: Any,
        size_bytes: int,
        due: float,
        seq: int,
    ):
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        self.src = src
        self.dst = dst
        self.port = port
        self.payload = payload
        self.size_bytes = int(size_bytes)
        self.due = due
        self.seq = seq
        self.next: Optional[Packet] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet {self.src}->{self.dst}:{self.port} "
            f"{self.size_bytes}B due={self.due}>"
        )
