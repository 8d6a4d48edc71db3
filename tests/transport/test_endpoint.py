"""Demultiplexing at the endpoint: the link hands a channel its own
packets on the channel's keys, and the endpoint's port sees only
datagrams and what no channel key is bound for yet."""

from repro.transport import TransportEndpoint

from tests.transport.test_fifo import build_net, collect, ignore


def port_log(net, endpoint):
    """Record the kind of every packet that reaches ``endpoint``'s own
    port handler, then hand it on."""
    kinds = []
    handler = endpoint._on_packet

    def logged(packet):
        kinds.append(packet.payload[0])
        handler(packet)

    net.host(endpoint.node_name).bind(endpoint.port, logged)
    return kinds


def test_the_first_frame_opens_its_channel_through_the_port_the_rest_bypass_it():
    sim, net = build_net()
    ep_a, ep_b = TransportEndpoint(net, "a"), TransportEndpoint(net, "b")
    ep_a.accept("stream", ignore)
    received = []
    ep_b.accept("stream", collect(received, lambda peer, p, m: m))
    at_a, at_b = port_log(net, ep_a), port_log(net, ep_b)
    sender = ep_a.channel("b", "stream")
    for i in range(3):
        sender.send(b"x", meta=i)
    assert ep_b.channels() == {}
    sim.run(until=1.0)
    assert received == [0, 1, 2]
    assert list(ep_b.channels()) == [("a", "stream")]
    assert at_b == ["data"]  # only the frame that opened the channel
    assert at_a == []  # the ACKs went straight to the sender's channel
    assert sender.unacked_count() == 0


def test_a_never_accepted_name_is_dropped_unacknowledged_and_still_revives():
    sim, net = build_net()
    ep_a, ep_b = TransportEndpoint(net, "a"), TransportEndpoint(net, "b")
    ep_a.accept("s", ignore, max_retransmit_attempts=2)
    received = []
    ep_b.accept("s", collect(received, lambda peer, p, m: m))
    sender = ep_a.channel("b", "s")
    sender.send(b"x", meta="pre")
    net.crash_node("b")
    sim.run(until=10.0)
    assert sender.suspended
    net.recover_node("b")
    # b sends on a name a never accepted: a keeps no channel for it and
    # acknowledges nothing, but the packet is a sign of life from b.
    ep_b.accept("unknown", ignore)
    stray = ep_b.channel("a", "unknown")
    stray.send(b"hello")
    sim.run(until=10.05)
    assert ("b", "unknown") not in ep_a.channels()
    assert stray.unacked_count() == 1
    assert not sender.suspended and sender.revivals == 1
    sim.run(until=12.0)
    assert received == ["pre"]
    assert sender.unacked_count() == 0


def test_stragglers_to_a_closed_endpoints_channel_keys_are_dropped():
    sim, net = build_net()
    ep_a, ep_b = TransportEndpoint(net, "a"), TransportEndpoint(net, "b")
    ep_a.accept("stream", ignore)
    ep_b.accept("stream", ignore)
    to_b, to_a = ep_a.channel("b", "stream"), ep_b.channel("a", "stream")
    to_a.send(b"x")  # a's ACK for it is due back at b at about 0.07
    sim.run(until=0.065)
    to_b.send(b"y")  # a data frame for b's channel key, in flight
    assert net.link("a", "b").backlog_bytes() == 24 + 25  # the ACK and y
    ep_b.close()
    received = net.host("b").packets_received
    sim.run(until=1.0)  # neither straggler raises
    assert net.host("b").packets_received == received


def test_a_restarted_endpoint_receives_on_the_old_keys():
    sim, net = build_net()
    ep_a, ep_b = TransportEndpoint(net, "a"), TransportEndpoint(net, "b")
    ep_a.accept("stream", ignore)
    first = []
    ep_b.accept("stream", collect(first, lambda peer, p, m: m))
    sender = ep_a.channel("b", "stream")
    sender.send(b"x", meta="pre")
    sim.run(until=1.0)
    ep_b.close()
    ep_b2 = TransportEndpoint(net, "b")
    second = []
    ep_b2.accept("stream", collect(second, lambda peer, p, m: m))
    sender.reset_stream()  # what a peer does for a restarted node
    sender.send(b"x", meta="post")
    sim.run(until=2.0)
    assert (first, second) == (["pre"], ["post"])
    assert sender.unacked_count() == 0
