"""Packet interception for tests: a tap on every link of a network.

Every packet enters the network through :meth:`repro.net.link.Link.send`
— a transport channel or datagram calls its peer's link directly, and
``Network.send`` delegates to it — so that is the one place a test can
see, drop or record traffic.  The tap replaces ``send`` on each link of
the network (only of that network: a twin cluster built beside it is
left alone).
"""


class Tap:
    """Every packet of one transport ``kind`` — ``"data"``, ``"ack"`` or
    ``"dgram"``, the frame's first element — that a link of ``net`` is
    handed from now on.

    ``seen`` logs ``(time, src, dst, payload, size_bytes)`` for each such
    packet, before the link drops or sends it.  With ``drop`` given, a
    packet for which ``drop(src, dst, payload)`` is true goes no further:
    it is logged in ``dropped`` the same way and the send returns False,
    as a lost packet does.  A test asserts on ``seen`` that the traffic it
    filters did cross the tap — an empty tap proves nothing.
    """

    def __init__(self, net, kind, drop=None):
        self.kind = kind
        self.drop = drop
        self.seen = []
        self.dropped = []
        for link in net.links.values():
            link.send = self._wrap(link, link.send)

    def _wrap(self, link, send):
        def tapped(port, payload, size_bytes):
            if payload[0] == self.kind:
                packet = (link.sim.now, link.src, link.dst, payload, size_bytes)
                self.seen.append(packet)
                if self.drop is not None and self.drop(link.src, link.dst, payload):
                    self.dropped.append(packet)
                    return False
            return send(port, payload, size_bytes)

        return tapped
