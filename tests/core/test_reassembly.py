"""In-order reassembly delivers what the any-order reassembler did.

An object's chunks are consecutive sequences of one origin's FIFO stream,
so the data plane reassembles in order: one object in progress per
origin, joined once on its last chunk.  This is the differential test of
that against the reassembler it replaced, which rebuilt objects from
chunks arriving in any order, and the frame builder that cut the frames
(both kept here as private oracles).  Seeded in-order streams — objects of
one to many chunks, real and synthetic ones, frames of one to five
messages that mix both, replayed prefixes, a late join at an object
boundary — are fed to a receiving data plane with and without a durability
hook, and must yield the oracle's deliveries ``(seq, payload as data,
meta)`` and the oracle's ``on_received`` calls.

Where the two differ on purpose is a stream that resumes mid-object: the
orphaned tail of an object whose head the receiver never held is dropped,
where the old reassembler held it forever — and could complete a *new*
object of the same id with it.
"""

import random

import pytest

from repro.core import StabilizerConfig
from repro.core.dataplane import DATA_CHANNEL, FRAME_TAG, DataPlane
from repro.errors import TransportError
from repro.net import NetemSpec, Topology
from repro.obs import Tracer
from repro.sim import Simulator
from repro.transport.endpoint import TransportEndpoint
from repro.transport.messages import SyntheticPayload, payload_length


class _Chunk:
    __slots__ = ("object_id", "chunk_index", "chunk_count", "payload")

    def __init__(self, object_id, chunk_index, chunk_count, payload):
        self.object_id = object_id
        self.chunk_index = chunk_index
        self.chunk_count = chunk_count
        self.payload = payload


class _Reassembler:
    """The any-order reassembler: partial objects keyed by object id."""

    def __init__(self):
        self._partial = {}
        self._counts = {}

    def feed(self, chunk):
        known_count = self._counts.setdefault(chunk.object_id, chunk.chunk_count)
        if known_count != chunk.chunk_count:
            raise TransportError("inconsistent chunk count")
        if not 0 <= chunk.chunk_index < chunk.chunk_count:
            raise TransportError("chunk index out of range")
        parts = self._partial.setdefault(chunk.object_id, {})
        parts[chunk.chunk_index] = chunk.payload
        if len(parts) < chunk.chunk_count:
            return None
        del self._partial[chunk.object_id]
        del self._counts[chunk.object_id]
        ordered = [parts[i] for i in range(chunk.chunk_count)]
        if any(isinstance(p, SyntheticPayload) for p in ordered):
            return SyntheticPayload(sum(payload_length(p) for p in ordered))
        return b"".join(bytes(p) for p in ordered)

    def pending_objects(self):
        return len(self._partial)


class _FrameBuilder:
    """The frame builder runs of two or more were cut with."""

    def __init__(self):
        self._parts, self._metas, self._lengths = [], [], []
        self._synthetic = False

    def add(self, payload, meta):
        if isinstance(payload, SyntheticPayload):
            self._synthetic = True
        elif not isinstance(payload, memoryview):
            payload = memoryview(payload)
        self._parts.append(payload)
        self._metas.append(meta)
        self._lengths.append(payload_length(payload))

    def build(self):
        if self._synthetic:
            payload = SyntheticPayload(sum(self._lengths))
        else:
            payload = b"".join(self._parts)
        return payload, tuple(self._metas), tuple(self._lengths)


def _split_frame_payload(payload, lengths):
    """The receive-side inverse of :class:`_FrameBuilder`."""
    if isinstance(payload, SyntheticPayload):
        return [SyntheticPayload(n) for n in lengths]
    view = memoryview(payload)
    parts, offset = [], 0
    for length in lengths:
        parts.append(view[offset : offset + length])
        offset += length
    return parts


def plain(payload):
    """A payload as comparable data: its bytes, or a synthetic length."""
    if isinstance(payload, SyntheticPayload):
        return ("synthetic", payload.length)
    return bytes(payload)


def wire(messages, epoch=0):
    """``[(chunk_meta, payload), ...]`` as the one frame the sender cuts:
    a lone message ships as it is, a run through the builder."""
    if len(messages) == 1:
        meta, payload = messages[0]
        return payload, (epoch, meta)
    builder = _FrameBuilder()
    for meta, payload in messages:
        builder.add(payload, meta)
    payload, metas, lengths = builder.build()
    return payload, (epoch, (FRAME_TAG, metas, lengths))


def make_stream(rng, objects, start=1):
    """``objects`` whole objects of origin x from sequence ``start``, each
    of one to six chunks, real or synthetic: ``[(chunk_meta, payload)]``."""
    stream = []
    first_id = rng.randint(0, 50)
    for object_id in range(first_id, first_id + objects):
        count = rng.choice((1, 1, 2, 3, 6))
        synthetic = rng.random() < 0.5
        for index in range(count):
            seq = start + len(stream)
            size = rng.randint(0, 30)
            payload = (
                SyntheticPayload(size) if synthetic else bytes([seq % 251]) * size
            )
            stream.append(((seq, object_id, index, count, f"o{object_id}"), payload))
    return stream


def cut(rng, stream):
    """``stream`` as frames of one to five messages; some frames re-send
    a prefix already sent, some replay nothing new."""
    frames, at = [], 0
    while at < len(stream):
        size = rng.randint(1, 5)
        lead = rng.randint(0, min(at, 4)) if rng.random() < 0.3 else 0
        frames.append(stream[at - lead : at + size])
        at += size
        if rng.random() < 0.15:
            low = rng.randrange(at)
            frames.append(stream[low : rng.randint(low + 1, at)])
    return frames


class Receiver:
    """A bare data plane at y taking x's stream off the data channel;
    with ``handler``, something listens from the start (else call
    :meth:`listen`)."""

    def __init__(self, durable, handler=True, tracer=None):
        net = Topology.uniform(
            {"x": "x", "y": "y"}, NetemSpec(latency_ms=5, rate_mbit=100)
        ).build(Simulator())
        config = StabilizerConfig(["x", "y"], {"x": ["x"], "y": ["y"]}, "y")
        self.delivered, self.received = [], []
        endpoint = TransportEndpoint(net, "y")
        if tracer is not None:
            endpoint.tracer = tracer
        self.plane = DataPlane(
            endpoint,
            config,
            on_received=self._on_received if durable else None,
        )
        if handler:
            self.listen()
        self._receive = self.plane.endpoint.channel("x", DATA_CHANNEL).on_deliver

    def listen(self):
        self.plane.on_deliver = lambda origin, seq, payload, meta: self.delivered.append(
            (seq, plain(payload), meta)
        )

    def _on_received(self, origin, seq, payload):
        self.received.append((seq, plain(payload)))

    def arrive(self, messages):
        self._receive(*wire(messages))
        return self

    def in_progress(self):
        return self.plane._objects.get("x")


def oracle(frames, durable):
    """What the receive path delivered before: frames split by the old
    splitter, held prefixes dropped, chunks fed to the any-order
    reassembler.  Returns ``(delivered, received, pending objects)``."""
    reassembler = _Reassembler()
    delivered, received = [], []
    watermark = None
    for messages in frames:
        payload, (_epoch, meta) = wire(messages)
        if meta[0] == FRAME_TAG:
            metas, parts = meta[1], _split_frame_payload(payload, meta[2])
        else:
            metas, parts = (meta,), (payload,)
        if watermark is None:
            watermark = metas[0][0] - 1
        for (seq, object_id, index, count, user_meta), part in zip(metas, parts):
            if seq <= watermark:
                continue
            watermark = seq
            if durable:
                received.append((seq, plain(part)))
            if count == 1:
                complete = part
            else:
                complete = reassembler.feed(_Chunk(object_id, index, count, part))
            if complete is not None:
                delivered.append((seq, plain(complete), user_meta))
    return delivered, received, reassembler.pending_objects()


@pytest.mark.parametrize("durable", (True, False), ids=("durable", "plain"))
@pytest.mark.parametrize("seed", range(24))
def test_in_order_reassembly_delivers_what_the_any_order_one_did(seed, durable):
    rng = random.Random(seed)
    # Odd seeds join late: first contact at an object boundary past seq 1.
    start = 1 if seed % 2 == 0 else rng.randint(2, 90)
    frames = cut(rng, make_stream(rng, rng.randint(6, 14), start=start))
    receiver = Receiver(durable)
    for messages in frames:
        receiver.arrive(messages)
    delivered, received, pending = oracle(frames, durable)
    assert receiver.delivered == delivered
    assert receiver.received == received
    assert pending == 0 and receiver.in_progress() is None
    assert receiver.plane.highest_received("x") == max(
        meta[0] for messages in frames for meta, _payload in messages
    )
    # The streams exercised every shape the test is about.
    if seed == 0:
        metas = [meta for messages in frames for meta, _payload in messages]
        assert max(meta[3] for meta in metas) > 1
        assert any(len(messages) > 1 for messages in frames)
        assert receiver.plane.duplicates_dropped > 0


def test_in_order_chunks_deliver_the_joined_object():
    stream = [
        ((seq, 0, seq - 1, 3, "m"), part)
        for seq, part in ((1, b"abcd"), (2, b"efgh"), (3, b"ij"))
    ]
    receiver = Receiver(durable=False).arrive(stream[:1]).arrive(stream[1:])
    assert receiver.delivered == [(3, b"abcdefghij", "m")]
    assert receiver.in_progress() is None


def test_a_synthetic_object_delivers_its_total_length():
    # The last chunk rides a synthetic frame, the first two arrived real:
    # a mixed frame degrades the whole object to its length, as before.
    stream = [
        ((1, 0, 0, 3, None), b"abcd"),
        ((2, 0, 1, 3, None), b"efgh"),
        ((3, 0, 2, 3, None), b"ij"),
        ((4, 1, 0, 1, None), SyntheticPayload(7)),
    ]
    receiver = Receiver(durable=False).arrive(stream[:2]).arrive(stream[2:])
    assert receiver.delivered == [
        (3, ("synthetic", 10), None),
        (4, ("synthetic", 7), None),
    ]
    whole = Receiver(durable=False).arrive(
        [
            ((1, 0, 0, 2, None), SyntheticPayload(8192)),
            ((2, 0, 1, 2, None), SyntheticPayload(5)),
        ]
    )
    assert whole.delivered == [(2, ("synthetic", 8197), None)]


def test_a_new_object_is_never_completed_with_a_stale_chunk():
    """A receiver resumed inside object 7 takes its replayed tail; then a
    restarted origin, numbering objects afresh, sends a new object 7.  The
    tail is an orphan: dropped, and the new object is delivered whole, of
    its own chunks, at its own last sequence."""
    receiver = Receiver(durable=False)
    receiver.plane.restore_highest_received("x", 10)
    receiver.arrive([((11, 7, 2, 3, "old"), b"old-tail")])
    assert receiver.delivered == []
    receiver.arrive([
        ((12, 7, 0, 3, "new"), b"new-0|"),
        ((13, 7, 1, 3, "new"), b"new-1|"),
        ((14, 7, 2, 3, "new"), b"new-2"),
    ])
    assert receiver.delivered == [(14, b"new-0|new-1|new-2", "new")]
    assert receiver.in_progress() is None


def test_an_orphan_is_dropped_and_keeps_no_state():
    receiver = Receiver(durable=True)
    receiver.plane.restore_highest_received("x", 4)
    receiver.arrive([((5, 3, 1, 2, None), b"tail")])
    assert receiver.delivered == [] and receiver.in_progress() is None
    receiver.arrive([((6, 4, 0, 2, None), b"he"), ((7, 4, 1, 2, None), b"ad")])
    assert receiver.delivered == [(7, b"head", None)]
    # on_received takes every message, orphan included: it is in the stream.
    assert receiver.received == [(5, b"tail"), (6, b"he"), (7, b"ad")]
    assert receiver.plane.highest_received("x") == 7


def test_an_orphan_leaves_the_object_in_progress_alone():
    # Same object id, but not the next index: not a continuation.
    receiver = Receiver(durable=False)
    receiver.plane.restore_highest_received("x", 5)
    receiver.arrive([((6, 4, 0, 3, None), b"he"), ((7, 4, 2, 3, None), b"xx")])
    receiver.arrive([((8, 5, 0, 1, None), b"z")])
    assert receiver.delivered == [(8, b"z", None)]
    assert receiver.in_progress()[:2] == [4, 1]


# ---------------------------------------------------------------------------
# A receiver nothing delivers to defers reassembly: it keeps the runs since
# the head of the object in progress, and only while one is in progress.
# ---------------------------------------------------------------------------


def kept_seqs(receiver):
    """The sequences of the runs the receiver keeps for x, run by run."""
    return [
        [meta[0] for meta in metas] for metas, _parts, _synthetic
        in receiver.plane._kept.get("x", ())
    ]


@pytest.mark.parametrize("durable", (True, False), ids=("durable", "plain"))
@pytest.mark.parametrize("seed", range(24))
def test_a_late_handler_gets_what_the_oracle_delivers_after_it(seed, durable):
    """Nothing listens until a seeded frame; from there the handler sees
    exactly the oracle's deliveries of the objects completed since, the
    one in progress whole.  Until then ``on_received`` still takes every
    message, and the receiver keeps runs only while an object is in
    progress, from the run that holds its head."""
    rng = random.Random(seed)
    start = 1 if seed % 2 == 0 else rng.randint(2, 90)
    stream = make_stream(rng, rng.randint(6, 14), start=start)
    frames = cut(rng, stream)
    late = rng.randrange(len(frames) + 1)
    metas = {meta[0]: meta for meta, _payload in stream}
    receiver = Receiver(durable, handler=False)
    for messages in frames[:late]:
        receiver.arrive(messages)
        last = metas[receiver.plane.highest_received("x")]
        kept = kept_seqs(receiver)
        if last[2] + 1 == last[3]:
            assert kept == []  # an object boundary passed
        else:
            head = last[0] - last[2]
            assert kept and head in kept[0]
            assert all(metas[seq][2] for run in kept[1:] for seq in run)
    assert receiver.plane._objects == {}
    receiver.listen()
    for messages in frames[late:]:
        receiver.arrive(messages)
    delivered, received, _pending = oracle(frames, durable)
    before, _received, _pending = oracle(frames[:late], durable)
    assert receiver.delivered == delivered[len(before):]
    assert receiver.received == received
    assert receiver.in_progress() is None and receiver.plane._kept == {}


def test_the_first_handler_gets_the_object_in_progress_and_nothing_before():
    stream = [
        ((1, 0, 0, 2, "a"), b"a0|"),
        ((2, 0, 1, 2, "a"), b"a1"),
        ((3, 1, 0, 3, "b"), b"b0|"),
        ((4, 1, 1, 3, "b"), b"b1|"),
        ((5, 1, 2, 3, "b"), b"b2"),
        ((6, 2, 0, 1, "c"), b"c"),
    ]
    receiver = Receiver(durable=False, handler=False)
    receiver.arrive(stream[:3])  # object a whole, and b's head
    assert kept_seqs(receiver) == [[1, 2, 3]]
    receiver.arrive(stream[3:4])
    assert kept_seqs(receiver) == [[1, 2, 3], [4]]
    receiver.listen()
    receiver.arrive(stream[4:])
    # a completed before anyone listened: it is not delivered.
    assert receiver.delivered == [(5, b"b0|b1|b2", "b"), (6, b"c", "c")]
    assert receiver.plane._kept == {} and receiver.in_progress() is None


def test_a_tracer_enabled_mid_object_traces_what_an_assembling_receiver_does():
    """``data.deliver`` events from the instant a tracer is enabled are
    those of a receiver that assembled all along (one with a handler):
    the object in progress, but nothing that completed before."""
    stream = [
        ((1, 0, 0, 1, None), b"a"),
        ((2, 1, 0, 3, None), b"b0"),
        ((3, 1, 1, 3, None), b"b1"),
        ((4, 1, 2, 3, None), b"b2"),
        ((5, 2, 0, 2, None), b"c0"),
        ((6, 2, 1, 2, None), b"c1"),
    ]
    events = []
    for handler in (True, False):
        tracer = Tracer(enabled=False)
        receiver = Receiver(durable=False, handler=handler, tracer=tracer)
        receiver.arrive(stream[:2]).arrive(stream[2:3])
        tracer.enable()
        receiver.arrive(stream[3:5]).arrive(stream[5:])
        events.append([
            (event.fields["seq"], event.fields["object"])
            for event in tracer.events() if event.etype == "data.deliver"
        ])
    assert events[0] == events[1] == [(4, 1), (6, 2)]
