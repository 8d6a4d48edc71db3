"""The framing claims, checked on the wire.

Each ``send()`` cuts the log entries it added into greedy runs once and
ships them to every peer; ``replay_to`` ships one peer the greedy runs of
the log from the sequence it asks for.  Seeded traffic from ``a`` — real
and synthetic payloads, objects of one and of many chunks, chunks on both
sides of ``frame_bytes`` — with a replay to one peer mid-schedule, which
coalesces what the sends shipped apart, crosses a wiretap, and every data
frame as first put on the wire must keep the claims of the send path:

- a frame is a contiguous run of the origin's stream, and each peer's
  frames cover the stream in order (a replayed peer's again from the
  sequence it asked for);
- a lone message ships its chunk and chunk meta as they are;
- a run of two or more messages is one frame of at most ``frame_bytes``,
  its payloads joined (one ``SyntheticPayload`` if any is synthetic);
- every run is greedy: it stops at the log's end when it was cut, or
  where the next message would not fit;
- every peer a send ships to receives the identical frames, each built
  once: the frames the data plane builds are one per run of each send or
  replay, not one per peer.
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
PEERS = NODES[1:]
CHUNK_BYTES = 1500
FRAME_BYTES = 1024  # below the largest chunk: some chunks alone fill a frame
REPLAYED = "e"  # the peer replayed to mid-schedule


def plain(payload):
    """A payload as comparable data: its bytes, or a synthetic length."""
    if isinstance(payload, SyntheticPayload):
        return ("synthetic", payload.length)
    return bytes(payload)


def draw_payload(rng):
    size = rng.choice(
        (
            rng.randint(1, 200),  # several fit one frame of a replay
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


def stream_traffic(schedule, replay_at=None, replay_from=None):
    """Send ``schedule`` from ``a``; at ``replay_at`` (if any), replay
    :data:`REPLAYED` the log from ``replay_from`` (by default, its second
    half).  Returns the chunks
    ``a`` sequenced (seq -> (part, chunk meta)), per peer the data frames
    as first put on the wire — ``(cut, log end at the cut, payload, meta,
    wire size)``, where a cut numbers the ``send`` or ``replay_to`` call
    that shipped the frame — per peer what it delivered, the replays
    (peer -> (cut, from_seq)) and the plane."""
    sim = Simulator()
    net = Topology.uniform(
        {name: name for name in NODES}, NetemSpec(latency_ms=10, rate_mbit=20)
    ).build(sim)
    config = StabilizerConfig(
        NODES,
        {name: [name] for name in NODES},
        "a",
        chunk_bytes=CHUNK_BYTES,
        frame_bytes=FRAME_BYTES,
    )
    delivered = {peer: [] for peer in PEERS}
    for peer in PEERS:
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
    # Beside each tapped packet, the cut and the log's end at that
    # instant: a frame is cut and handed to its link in one call.
    cut = [0]
    noted = []
    for link in net.links.values():
        link.send = note_cut(link.send, plane, cut, noted)
    chunks = {}
    replays = {}

    def send(payload, object_id):
        cut[0] += 1
        first, last = plane.send(payload)
        for index, seq in enumerate(range(first, last + 1)):
            chunks[seq] = (parts[seq], (seq, object_id, index, last - first + 1, None))

    def replay():
        cut[0] += 1
        from_seq = plane.next_seq // 2 if replay_from is None else replay_from
        replays[REPLAYED] = (cut[0], from_seq)
        plane.replay_to(REPLAYED, from_seq)

    for object_id, (at, payload) in enumerate(schedule):
        sim.call_at(at, send, payload, object_id)
    if replay_at is not None:
        sim.call_at(replay_at, replay)
    sim.run()
    assert len(tap.seen) == len(noted)
    frames = {peer: [] for peer in PEERS}
    first_sends = set()
    for (at_cut, log_end), (_at, _src, dst, wire, size_bytes) in zip(noted, tap.seen):
        if (dst, wire[5], wire[2]) in first_sends:  # (peer, stream epoch, seq)
            continue  # a retransmission of a frame already cut
        first_sends.add((dst, wire[5], wire[2]))
        frames[dst].append((at_cut, log_end, wire[3], wire[4], size_bytes))
    return chunks, frames, delivered, replays, plane


def note_cut(send, plane, cut, noted):
    def noting(port, payload, size_bytes):
        if payload[0] == "data":
            noted.append((cut[0], plane.next_seq))
        return send(port, payload, size_bytes)

    return noting


def mid_schedule(schedule):
    """An instant halfway through ``schedule``'s sends."""
    return schedule[len(schedule) // 2][0]


def run_of(meta):
    """The chunk metas of a frame, lone or coalesced."""
    _epoch, inner = meta
    return inner[1] if inner[0] == FRAME_TAG else (inner,)


def assert_framing_claims(chunks, frames, delivered, replays):
    """The claims of the module docstring over one run's wire; returns
    the frames per cut and peer."""
    assert all(frames.values())  # every peer's data frames crossed the tap
    streamed = len(chunks)
    size = {seq: len(part) for seq, (part, _meta) in chunks.items()}
    by_cut = {}
    for peer, peer_frames in frames.items():
        expected_first = 1
        replay_cut, replay_from = replays.get(peer, (None, None))
        for cut, log_end, payload, meta, wire_size in peer_frames:
            if cut == replay_cut and replay_from is not None:
                # The replay restarts the peer's stream where it asked.
                expected_first, replay_from = replay_from + 1, None
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
            by_cut.setdefault(cut, {}).setdefault(peer, []).append(
                (plain(payload), meta, wire_size)
            )
        assert expected_first == streamed + 1  # the whole stream, in order
    replay_cuts = {cut for cut, _from in replays.values()}
    for cut, shipped in by_cut.items():
        if cut in replay_cuts:
            assert len(shipped) == 1  # a replay ships to its peer alone
            continue
        # A send shipped the same frames to every peer.
        assert sorted(shipped) == PEERS, cut
        sent = list(shipped.values())
        assert all(got == sent[0] for got in sent), cut
    # Every peer delivered every message of the stream, in order; a
    # replayed one, what it held when the replay reset its stream, then
    # the replay and the rest.
    for peer, got in delivered.items():
        seqs = [m[0] for _payload, meta in got for m in run_of(meta)]
        replay_from = replays.get(peer, (None, streamed))[1]
        held = len(seqs) - (streamed - replay_from)
        assert held >= replay_from
        assert seqs == list(range(1, held + 1)) + list(
            range(replay_from + 1, streamed + 1)
        )
    return by_cut


def built_and_runs(frames):
    """The frames the data plane built — each build is one new meta
    handed to the channels — and the runs of every cut."""
    got = [frame for peer_frames in frames.values() for frame in peer_frames]
    built = {id(meta) for _cut, _end, _payload, meta, _size in got}
    runs = {
        (cut, run_of(meta)[0][0], run_of(meta)[-1][0])
        for cut, _end, _payload, meta, _size in got
    }
    return built, runs


@pytest.mark.parametrize("seed", range(8))
def test_frames_on_the_wire_keep_the_framing_claims(seed):
    schedule = seeded_schedule(seed)
    chunks, frames, delivered, replays, plane = stream_traffic(
        schedule, replay_at=mid_schedule(schedule)
    )
    assert_framing_claims(chunks, frames, delivered, replays)
    # The traffic exercised both cuts: lone frames and coalesced ones.
    metas = [meta for got in delivered.values() for _payload, meta in got]
    assert any(meta[1][0] == FRAME_TAG for meta in metas)
    assert any(meta[1][0] != FRAME_TAG for meta in metas)
    assert plane.frames_sent == sum(len(f) for f in frames.values())
    assert plane.replayed_chunks > 0


@pytest.mark.parametrize("seed", range(8))
def test_a_frame_is_built_once_per_run_not_once_per_peer(seed):
    """A count guard, no clock: each frame the data plane builds is one
    new meta handed to the channels, so the distinct metas on the wire
    are the frames built.  They must be the runs of the sends and the
    replay; the per-peer frames are several times more."""
    schedule = seeded_schedule(seed)
    _chunks, frames, _delivered, _replays, plane = stream_traffic(
        schedule, replay_at=mid_schedule(schedule)
    )
    built, runs = built_and_runs(frames)
    assert len(built) == len(runs)
    assert plane.frames_sent >= 2 * len(runs)
    # Multi-message frames are among them.
    assert any(last > first for _cut, first, last in runs)


def test_a_replay_from_inside_a_send_ships_the_longer_greedy_run():
    """The first send ships a full chunk and its short tail apart, and
    each later small send ships alone.  A replay from the tail, inside
    that first send, finds the log grown past it and ships the tail and
    the later messages as one greedy run."""
    schedule = [
        (0.0, SyntheticPayload(CHUNK_BYTES + 100)),  # seq 1 full, seq 2 the tail
        (0.01, b"x" * 100),
        (0.02, b"y" * 100),
    ]
    chunks, frames, delivered, replays, _plane = stream_traffic(
        schedule, replay_at=0.03, replay_from=1
    )
    assert_framing_claims(chunks, frames, delivered, replays)
    replay_cut = replays[REPLAYED][0]

    def runs(peer, replayed):
        return [
            [m[0] for m in run_of(meta)]
            for cut, _end, _payload, meta, _size in frames[peer]
            if (cut == replay_cut) == replayed
        ]

    for peer in PEERS:
        assert runs(peer, replayed=False) == [[1], [2], [3], [4]]
    assert runs(REPLAYED, replayed=True) == [[2, 3, 4]]
