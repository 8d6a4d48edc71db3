"""The framing claims, checked on the wire.

Every peer's frames are cut off the one send log, each from the peer's
cursor.  Seeded traffic from ``a`` — real and synthetic payloads, objects
of one and of many chunks, chunks on both sides of ``frame_bytes``, a
window small enough that stalled peers coalesce several messages into
one frame — crosses a wiretap, and every data frame as first put on the
wire must keep the claims of the send path:

- a frame is a contiguous run of the origin's stream, and each peer's
  frames cover the stream in order;
- a lone message ships its chunk and chunk meta as they are;
- a run of two or more messages is one frame of at most ``frame_bytes``,
  its payloads joined (one ``SyntheticPayload`` if any is synthetic);
- every run is greedy: it stops at the log's end when it was cut, or
  where the next message would not fit;
- peers cut at the same (first sequence, log end) receive the identical
  frame, and it is built once: the frames the data plane builds are the
  distinct runs, not the per-peer cuts.
"""

import random

import pytest

from repro.core import StabilizerConfig
from repro.core.dataplane import DATA_CHANNEL, FRAME_TAG, DataPlane
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.transport.endpoint import TransportEndpoint
from repro.transport.fifo import TRANSPORT_HEADER_BYTES
from repro.transport.messages import BATCH_ENTRY, SyntheticPayload

from tests.wiretap import Tap

NODES = ["a", "b", "c", "d", "e"]
CHUNK_BYTES = 1500
FRAME_BYTES = 1024  # below the largest chunk: some chunks alone fill a frame
WINDOW_BYTES = 6000  # a few frames in flight, then the window stalls
# (latency ms, Mbit/s) from ``a``: peers drain at different paces, so
# their cursors part and the same first sequence is cut at several log ends.
PEER_LINKS = {"b": (10, 20), "c": (30, 20), "d": (10, 5), "e": (60, 10)}


def plain(payload):
    """A payload as comparable data: its bytes, or a synthetic length."""
    if isinstance(payload, SyntheticPayload):
        return ("synthetic", payload.length)
    return bytes(payload)


def draw_payload(rng):
    size = rng.choice(
        (
            rng.randint(1, 200),  # several fit one frame
            rng.randint(200, FRAME_BYTES),
            rng.randint(FRAME_BYTES + 1, CHUNK_BYTES),  # one chunk, alone
            rng.randint(CHUNK_BYTES + 1, 4 * CHUNK_BYTES),  # many chunks
        )
    )
    if rng.random() < 0.5:
        return SyntheticPayload(size)
    return bytes(rng.getrandbits(8) for _ in range(size))


def seeded_schedule(seed):
    """The seeded traffic: bursts of payloads as ``(at, payload)`` in
    send order."""
    rng = random.Random(seed)
    schedule = []
    at = 0.0
    for _burst in range(40):
        at += rng.choice((0.0005, 0.002, 0.02))
        for _ in range(rng.randint(1, 4)):
            schedule.append((at, draw_payload(rng)))
    return schedule


def stream_traffic(schedule):
    """Send ``schedule`` from ``a``.  Returns the chunks ``a`` sequenced
    (seq -> (part, chunk meta)), per peer the data frames as first put on
    the wire — ``(log end at the cut, payload, meta, wire size)`` — per
    peer what it delivered, and the plane."""
    sim = Simulator()
    topology = Topology.uniform(
        {name: name for name in NODES}, NetemSpec(latency_ms=10, rate_mbit=20)
    )
    for peer, (latency_ms, rate_mbit) in PEER_LINKS.items():
        topology.set_link_symmetric(
            "a", peer, NetemSpec(latency_ms=latency_ms, rate_mbit=rate_mbit)
        )
    net = topology.build(sim)
    config = StabilizerConfig(
        NODES,
        {name: [name] for name in NODES},
        "a",
        chunk_bytes=CHUNK_BYTES,
        frame_bytes=FRAME_BYTES,
        window_bytes=WINDOW_BYTES,
    )
    delivered = {peer: [] for peer in NODES[1:]}
    for peer in NODES[1:]:
        TransportEndpoint(net, peer).accept(
            DATA_CHANNEL,
            lambda _origin, payload, meta, _log=delivered[peer]: _log.append(
                (plain(payload), meta)
            ),
            **config.channel_kwargs(),
        )
    parts = {}
    plane = DataPlane(
        TransportEndpoint(net, "a"),
        config,
        on_sent=lambda seq, part: parts.__setitem__(seq, part),
    )
    tap = Tap(net, "data")
    # Beside each tapped packet, the log's end at that instant: a frame
    # is cut and handed to its link in one call.
    log_ends = []
    for link in net.links.values():
        link.send = note_log_end(link.send, plane, log_ends)
    chunks = {}

    def send(payload, object_id):
        first, last = plane.send(payload)
        for index, seq in enumerate(range(first, last + 1)):
            chunks[seq] = (parts[seq], (seq, object_id, index, last - first + 1, None))

    for object_id, (at, payload) in enumerate(schedule):
        sim.call_at(at, send, payload, object_id)
    sim.run()
    assert len(tap.seen) == len(log_ends)
    frames = {peer: [] for peer in NODES[1:]}
    first_sends = set()
    for log_end, (_at, _src, dst, wire, size_bytes) in zip(log_ends, tap.seen):
        if (dst, wire[2]) in first_sends:
            continue  # a retransmission of a frame already cut
        first_sends.add((dst, wire[2]))
        frames[dst].append((log_end, wire[3], wire[4], size_bytes))
    return chunks, frames, delivered, plane


def note_log_end(send, plane, log_ends):
    def noted(port, payload, size_bytes):
        if payload[0] == "data":
            log_ends.append(plane.next_seq)
        return send(port, payload, size_bytes)

    return noted


def run_of(meta):
    """The chunk metas of a frame, lone or coalesced."""
    _epoch, inner = meta
    return inner[1] if inner[0] == FRAME_TAG else (inner,)


def assert_framing_claims(chunks, frames, delivered):
    """The claims of the module docstring over one run's wire; returns
    the frames per (first sequence, log end at the cut)."""
    assert all(frames.values())  # every peer's data frames crossed the tap
    streamed = len(chunks)
    size = {seq: len(part) for seq, (part, _meta) in chunks.items()}
    by_cut = {}
    for peer, peer_frames in frames.items():
        expected_first = 1
        for log_end, payload, meta, wire_size in peer_frames:
            run = run_of(meta)
            first, last = run[0][0], run[-1][0]
            # A contiguous run, continuing the peer's stream.
            assert [m[0] for m in run] == list(range(first, last + 1))
            assert first == expected_first
            expected_first = last + 1
            run_bytes = sum(size[seq] for seq in range(first, last + 1))
            if len(run) == 1:
                # A lone message: its chunk and chunk meta, as they are.
                part, chunk_meta = chunks[first]
                assert payload is part
                assert meta[1] == chunk_meta
                assert wire_size == run_bytes + TRANSPORT_HEADER_BYTES
            else:
                _tag, metas, lengths = meta[1]
                assert metas == tuple(chunks[seq][1] for seq in range(first, last + 1))
                assert lengths == tuple(size[seq] for seq in range(first, last + 1))
                run_parts = [chunks[seq][0] for seq in range(first, last + 1)]
                if any(isinstance(p, SyntheticPayload) for p in run_parts):
                    assert payload == SyntheticPayload(run_bytes)
                else:
                    assert payload == b"".join(run_parts)
                assert run_bytes <= FRAME_BYTES
                assert wire_size == (
                    run_bytes + TRANSPORT_HEADER_BYTES + BATCH_ENTRY.size * len(run)
                )
            # Greedy: the run stops at the log's end or at a message that
            # would not fit beside it.
            assert last < log_end
            assert (
                last + 1 == log_end
                or run_bytes >= FRAME_BYTES
                or run_bytes + size[last + 1] > FRAME_BYTES
            )
            by_cut.setdefault((first, log_end), []).append(
                (plain(payload), meta, wire_size)
            )
        assert expected_first == streamed + 1  # the whole stream, in order
    # Peers cut at the same (first sequence, log end) got the same frame.
    for cut, sent in by_cut.items():
        assert all(frame == sent[0] for frame in sent), cut
    # Every peer delivered every message of the stream, in order.
    for got in delivered.values():
        assert [m[0] for _payload, meta in got for m in run_of(meta)] == list(
            range(1, streamed + 1)
        )
    return by_cut


def built_and_runs(frames):
    """The frames the data plane built — each build is one new meta
    handed to the channels — and the distinct runs on the wire."""
    metas = [meta for got in frames.values() for _end, _payload, meta, _size in got]
    built = {id(meta) for meta in metas}
    runs = {(run_of(meta)[0][0], run_of(meta)[-1][0]) for meta in metas}
    return built, runs


@pytest.mark.parametrize("seed", range(8))
def test_frames_on_the_wire_keep_the_framing_claims(seed):
    chunks, frames, delivered, plane = stream_traffic(seeded_schedule(seed))
    by_cut = assert_framing_claims(chunks, frames, delivered)
    assert any(len(sent) > 1 for sent in by_cut.values())
    # The traffic exercised both cuts: lone frames and coalesced ones.
    metas = [meta for got in delivered.values() for _payload, meta in got]
    assert any(meta[1][0] == FRAME_TAG for meta in metas)
    assert any(meta[1][0] != FRAME_TAG for meta in metas)
    assert plane.frames_sent == sum(len(f) for f in frames.values())
    assert plane.window_stalls > 0  # the window held peers back


@pytest.mark.parametrize("seed", range(8))
def test_a_frame_is_built_once_per_run_not_once_per_peer(seed):
    """A count guard, no clock: each frame the data plane builds is one
    new meta handed to the channels, so the distinct metas on the wire
    are the frames built.  They must be the distinct runs; the per-peer
    cuts are several times more."""
    _chunks, frames, _delivered, plane = stream_traffic(seeded_schedule(seed))
    built, runs = built_and_runs(frames)
    assert len(built) == len(runs)
    assert plane.frames_sent >= 2 * len(runs)
    # Multi-message frames are among the shared ones.
    assert any(last > first for first, last in runs)


def test_a_run_the_log_grew_into_is_rebuilt_for_the_peer_held_back():
    """``b``'s ACKs return long before ``e``'s.  After the opening
    object, ``b`` ships each small message alone, at the log's end, while
    ``e`` waits on its window; ``e`` then cuts from the same first
    sequence with a longer log, and must ship the longer, greedy run."""
    schedule = [
        (0.0, SyntheticPayload(4 * CHUNK_BYTES)),  # overruns every window
        (0.08, b"x" * 100),  # b's ACK is back, e's is not
        (0.081, b"y" * 100),
        (0.082, b"z" * 100),
    ]
    chunks, frames, delivered, plane = stream_traffic(schedule)
    assert_framing_claims(chunks, frames, delivered)
    small = [seq for seq, (part, _meta) in chunks.items() if len(part) == 100]
    runs_from = {
        peer: [run_of(meta)[0][0] for _end, _payload, meta, _size in got if
               run_of(meta)[0][0] in small]
        for peer, got in frames.items()
    }
    assert runs_from["b"] == small  # alone, each at the log's end
    assert runs_from["e"] == small[:1]  # one run, cut later
    built, runs = built_and_runs(frames)
    assert len(built) == len(runs)
