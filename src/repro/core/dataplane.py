"""The data plane: pipelined sequenced streaming with a reclaimable buffer.

Section III-B: the data plane "can maximize utilization of WAN bandwidth by
sending data aggressively as soon as it has been assigned a sequence
number, but it can also buffer data for later transmission if needed.
When a message has been delivered everywhere, the buffer space is
reclaimed."  Large writes are split into ≤ 8 KB chunks (Section VI-B),
each a separately sequenced message.

One :class:`DataPlane` instance serves one node: it *originates* that
node's stream (fan-out to every remote peer over reliable FIFO channels)
and *receives* every remote stream (reassembling objects and reporting
``received`` acknowledgments to the control plane).

The data channel's cumulative ACK is also the receiver's ``received``
report to the origin.  The receiver ACKs within the control plane's
flush interval, with its shard epoch as the ACK's tag; when an ACK
retires frames, the origin reads the newest one's last sequence and
hands ``on_acked(peer, last)`` to the stabilization engine — unless the
tag differs from its own epoch, which says the peer fenced the frames
instead of taking them.

The send path is one send log, the send buffer, and no per-peer state.
``send()`` sequences a message's chunks into the log and cuts the new
entries once into *greedy runs*: from the first new sequence, as many
entries as fit in ``frame_bytes`` (always at least one; ``None``, a frame
per message), then the next run, to the log's end.  Every run is shipped
to every open peer channel, all of one peer's frames before the next
peer's.  The FIFO channel under it puts each frame on the link at once,
so no frame waits, for more messages or for an ACK:

- a run of one message ships its chunk and chunk meta as they are; a run
  of two or more is one coalesced WAN frame (one transport header and one
  link packet instead of one per message), built once and shared by
  every peer;
- crash-restart replay (:meth:`DataPlane.replay_to`) resets one peer's
  channel and ships it the greedy runs of the log from the sequence it
  asks for, which may coalesce what earlier sends shipped apart;
- backpressure is the bound on the retained send buffer
  (``max_buffer_bytes``), not a per-peer window: a slow peer's frames
  queue on its own link, and when the WAN cannot drain, ``send()`` raises
  :class:`~repro.errors.BackpressureError`, and the registered
  backpressure callbacks tell the producer when to pause and resume.

The receive path applies an arrived frame — a contiguous run ``[first,
last]`` of one origin's stream — as one unit: the run is validated whole,
the receive watermark advances once and the control plane hears of
``last`` once (acknowledgment state is monotonic, so only the last
sequence of a run carries information); reassembly, the durability
append and delivery stay per message.  A lone message is a run of one.
Reassembly only serves a consumer (a delivery handler, or the tracer's
``data.deliver``): a receiver with neither skips it and keeps, by
reference, only the runs since the head of the object in progress, which
the first consumer replays so that it gets that object whole.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import StabilizerConfig
from repro.errors import BackpressureError, StabilizerError, TransportError
from repro.transport.chunker import Chunker
from repro.transport.endpoint import TransportEndpoint
from repro.transport.fifo import FifoChannel
from repro.transport.messages import BATCH_ENTRY, Payload, SyntheticPayload

DATA_CHANNEL = "stab.data"

#: Tag discriminating a coalesced-frame meta from a plain chunk meta (whose
#: first element is an integer sequence number).
FRAME_TAG = "frame"

# Every plane frame's meta is ``(epoch, meta)``: the membership epoch of
# the shard map the sending stack was built from, around the frame's own
# meta.  Receivers unwrap and *fence*: a frame stamped with a different
# epoch comes from a stack running a superseded (or not-yet-adopted) shard
# layout, and delivering it would corrupt ACK rows whose indices belong
# to a different owner set.  Fenced frames are counted and dropped.

# (seq, object_id, chunk_index, chunk_count, user_meta)
ChunkMeta = Tuple[int, int, int, int, object]

DeliverFn = Callable[[str, int, Payload, object], None]
ReceivedFn = Callable[[str, int, Payload], None]
ArrivalFn = Callable[[str, int, int], None]
AckedFn = Callable[[str, int], None]
SentFn = Callable[[int, Payload], None]
BackpressureFn = Callable[[bool, int], None]

#: Backpressure engages when the retained buffer passes this fraction of
#: ``max_buffer_bytes`` and releases once reclamation drains it below
#: ``BACKPRESSURE_LOW`` — hysteresis, so callbacks do not flap.
BACKPRESSURE_HIGH = 0.75
BACKPRESSURE_LOW = 0.5


class _BufferEntry:
    __slots__ = ("seq", "size", "payload", "chunk_meta")

    def __init__(self, seq: int, size: int, payload=None, chunk_meta=None):
        self.seq = seq
        self.size = size
        # The chunk itself, retained for crash-restart replay: "it can
        # also buffer data for later transmission if needed".
        self.payload = payload
        self.chunk_meta = chunk_meta


class SendBuffer:
    """The send log: retains sent chunks, ``reclaimed_up_to + 1`` on,
    until they are globally delivered.

    ``add`` never refuses a chunk: the data plane checks
    :meth:`would_overflow` *before* it sequences a message, and refuses
    the whole message there.
    """

    def __init__(self, max_bytes: Optional[int] = None):
        self.max_bytes = max_bytes
        self._entries: Dict[int, _BufferEntry] = {}
        self._bytes = 0
        self._reclaimed_up_to = 0
        self.total_reclaimed = 0

    def would_overflow(self, nbytes: int) -> bool:
        return self.max_bytes is not None and self._bytes + nbytes > self.max_bytes

    def add(self, seq: int, size: int, payload=None, chunk_meta=None) -> None:
        self._entries[seq] = _BufferEntry(seq, size, payload, chunk_meta)
        self._bytes += size

    def reclaim_up_to(self, seq: int) -> int:
        """Release every entry with sequence <= ``seq``; returns count."""
        released = 0
        while self._reclaimed_up_to < seq:
            self._reclaimed_up_to += 1
            entry = self._entries.pop(self._reclaimed_up_to, None)
            if entry is not None:
                self._bytes -= entry.size
                released += 1
        self.total_reclaimed += released
        return released

    def entries_above(self, seq: int):
        """Retained entries with sequence > ``seq``, in order."""
        return [self._entries[s] for s in sorted(self._entries) if s > seq]

    @property
    def reclaimed_up_to(self) -> int:
        return self._reclaimed_up_to

    def buffered_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)


class DataPlane:
    """See module docstring."""

    def __init__(
        self,
        endpoint: TransportEndpoint,
        config: StabilizerConfig,
        on_received: Optional[ReceivedFn] = None,
        on_sent: Optional[SentFn] = None,
        on_arrival: Optional[ArrivalFn] = None,
        on_acked: Optional[AckedFn] = None,
    ):
        self.endpoint = endpoint
        self.config = config
        # Per delivered message: ``on_deliver(origin, seq, payload, meta)``
        # — set by the stabilizer once something subscribes to delivery.
        self.on_deliver: Optional[DeliverFn] = None
        # Per message of an arrived run: ``on_received(origin, seq,
        # payload)`` — the durability layer's ingest point for remote
        # streams (wired only when durability is on).
        self.on_received = on_received
        # Once per arrived frame: ``on_arrival(origin, last, first)`` —
        # ``origin``'s stream is now held contiguously up to ``last`` (the
        # run that just arrived began at ``first``).  The stabilization
        # engine's ``received`` grant hangs here.
        self.on_arrival = on_arrival
        # Once per data-channel ACK that retires frames the peer took:
        # ``on_acked(peer, last)`` — ``peer`` holds this node's stream
        # contiguously up to ``last`` (see module docstring).
        self.on_acked = on_acked
        # Called once per locally originated chunk, after it is buffered
        # and queued for transmission — the durability layer's ingest
        # point for the node's own stream.
        self.on_sent = on_sent
        # Epoch fencing: stamp every outgoing frame with the shard-map
        # epoch this stack was built from; drop mismatched arrivals.
        self.epoch = config.shard_epoch
        self.stale_epoch_frames = 0
        self.chunker = Chunker(config.chunk_bytes)
        # Admission policy runs before sequencing (see send()).
        self.buffer = SendBuffer(config.max_buffer_bytes)
        self._next_seq = 1  # message sequence numbers are 1-based
        # No coalescing is a frame_bytes of 0: every run is one message.
        self._frame_bytes = config.frame_bytes or 0
        # The ACK is the received report: due within the flush interval
        # that report would have waited, and tagged with our epoch.
        endpoint.accept(
            DATA_CHANNEL,
            self._receive,
            ack_delay=config.control_interval_s,
            ack_tag=self.epoch,
            **config.channel_kwargs(),
        )
        self._channels: Dict[str, FifoChannel] = {}
        for peer in config.remote_names():
            channel = self._channels[peer] = endpoint.channel(peer, DATA_CHANNEL)
            channel.on_retired = partial(self._retired, peer)
            channel.on_ack_traced = partial(self._trace_ack, peer)
        # Receiving state, per origin.  An object's chunks are consecutive
        # messages of its origin's FIFO stream, so an origin has at most one
        # object in progress: ``[object_id, next_index, parts, synthetic]``
        # (``synthetic`` once a part arrived as a length).
        self._objects: Dict[str, list] = {}
        # Per origin, while nothing consumes its objects: the arrived runs
        # ``(metas, parts, synthetic)`` from the one holding the head of
        # the object in progress on — none once a run ends an object.
        self._kept: Dict[str, list] = {}
        self._highest_received: Dict[str, int] = {}
        self.messages_sent = 0
        self.messages_received = 0
        self.duplicates_dropped = 0
        self.replayed_chunks = 0
        # Payload bytes offered to the transport, counted once per remote
        # peer a chunk is streamed to — the replication-fan-out cost that
        # shrinks with owner-set routing under partial replication.
        self.payload_bytes_sent = 0
        # Pipelining counters (per-frame view of the same traffic).
        self.frames_sent = 0
        self.frame_messages = 0
        self.frame_payload_bytes = 0
        self.frames_received = 0
        self.max_frame_messages = 0
        # Backpressure state (engaged while the WAN cannot drain).
        self._bp_handlers: List[BackpressureFn] = []
        self._bp_engaged = False
        self.backpressure_events = 0
        # Set while a rebalance has this shard frozen (see reclaim_up_to).
        self.hold_reclaim = False
        if config.max_buffer_bytes is not None:
            self._bp_high = int(config.max_buffer_bytes * BACKPRESSURE_HIGH)
            self._bp_low = int(config.max_buffer_bytes * BACKPRESSURE_LOW)
        else:
            self._bp_high = self._bp_low = None
        # Observability: the Stabilizer installs the shared tracer on the
        # endpoint before constructing the planes.
        self.tracer = endpoint.tracer
        self._trace_node = config.local

    # -- origin side -------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        return self._next_seq

    def send(self, payload: Payload, meta=None) -> Tuple[int, int]:
        """Stream one application message to every remote peer.

        The payload is split into ≤ ``chunk_bytes`` chunks, each assigned
        the next sequence number; the new chunks are cut into WAN frames
        once and shipped to every peer (see module docstring).  Returns
        ``(first_seq, last_seq)``; the message's stability is the
        stability of ``last_seq``.
        """
        object_id, parts, sizes = self.chunker.split(payload)
        nbytes = sum(sizes)
        if self.buffer.would_overflow(nbytes):
            raise BackpressureError(
                f"send buffer full ({self.buffer.buffered_bytes()}B of "
                f"{self.buffer.max_bytes}B); the WAN has not drained — "
                "wait for reclamation (see Stabilizer.on_backpressure)",
                buffered_bytes=self.buffer.buffered_bytes(),
                max_bytes=self.buffer.max_bytes,
            )
        first_seq = self._next_seq
        tracer = self.tracer
        tracing = tracer.enabled
        count = len(parts)
        index = 0
        for part, size in zip(parts, sizes):
            seq = self._next_seq
            self._next_seq += 1
            chunk_meta: ChunkMeta = (seq, object_id, index, count, meta)
            index += 1
            self.buffer.add(seq, size, part, chunk_meta)
            if tracing and tracer.sampled(self._trace_node, seq):
                tracer.emit(
                    self._trace_node,
                    "data.enqueue",
                    origin=self._trace_node,
                    seq=seq,
                    bytes=size,
                    object=object_id,
                )
            if self.on_sent is not None:
                self.on_sent(seq, part)
        self.messages_sent += count
        channels = self._channels.values()
        self.payload_bytes_sent += nbytes * len(channels)
        self._ship(self._cut(first_seq), channels, "inline")
        self._update_backpressure()
        return first_seq, self._next_seq - 1

    def last_sent_seq(self) -> int:
        return self._next_seq - 1

    # -- frame pipeline ----------------------------------------------------------
    def _retired(self, peer: str, meta, tag) -> None:
        """The channel's ``on_retired``: an ACK retired frames to
        ``peer``, the newest of them with ``meta``.  Unless the peer
        fenced them (its ``tag``, the peer's epoch, is not ours), it now
        holds our stream up to that frame's last sequence."""
        if tag == self.epoch and self.on_acked is not None:
            inner = meta[1]
            self.on_acked(peer, inner[1][-1][0] if inner[0] == FRAME_TAG else inner[0])

    def _trace_ack(self, origin: str, meta) -> None:
        """The receiver's end of an ACK-derived ``received`` grant: the
        data channel from ``origin`` sent an ACK covering the frame with
        ``meta`` (called only while tracing).  None, or a fenced frame's
        meta, is no grant."""
        if self.tracer.enabled and meta is not None and meta[0] == self.epoch:
            inner = meta[1]
            self.tracer.emit(
                self._trace_node,
                "data.ack_send",
                origin=origin,
                seq=inner[1][-1][0] if inner[0] == FRAME_TAG else inner[0],
            )

    def _cut(self, seq: int) -> list:
        """The log from ``seq`` to its end, cut into greedy runs (see
        module docstring), as frames ``(first, last, run_bytes, overhead,
        payload, meta)``."""
        log = self.buffer._entries
        end = self._next_seq
        frame_bytes = self._frame_bytes
        frames = []
        while seq < end:
            first = log[seq]
            last, run_bytes = seq, first.size
            while (
                run_bytes < frame_bytes
                and last + 1 < end
                and run_bytes + log[last + 1].size <= frame_bytes
            ):
                last += 1
                run_bytes += log[last].size
            if last == seq:
                # A lone message needs no batch framing: its chunk ships as is.
                meta = (self.epoch, first.chunk_meta)
                frames.append((seq, seq, run_bytes, 0, first.payload, meta))
            else:
                # Real payloads are joined once, here — the frame's one
                # copy.  A frame with any synthetic part is one
                # SyntheticPayload of the run's length (experiments at
                # that scale never inspect bytes).
                run = [log[s] for s in range(seq, last + 1)]
                parts = [entry.payload for entry in run]
                synthetic = SyntheticPayload in {type(part) for part in parts}
                payload = SyntheticPayload(run_bytes) if synthetic else b"".join(parts)
                metas = tuple([entry.chunk_meta for entry in run])
                lengths = tuple([entry.size for entry in run])
                meta = (self.epoch, (FRAME_TAG, metas, lengths))
                frames.append(
                    (seq, last, run_bytes, BATCH_ENTRY.size * len(run), payload, meta)
                )
            seq = last + 1
        return frames

    def _ship(self, frames: list, channels, cause: str) -> None:
        """Send ``frames`` on each open channel of ``channels``, all of one
        channel's before the next's."""
        tracer = self.tracer
        for channel in channels:
            if channel.closed:
                continue  # the peer's stack is gone: its frames have nowhere to go
            for first, last, run_bytes, overhead, payload, meta in frames:
                channel.send(payload, meta, overhead)
                messages = last - first + 1
                self.frames_sent += 1
                self.frame_messages += messages
                self.frame_payload_bytes += run_bytes
                if messages > self.max_frame_messages:
                    self.max_frame_messages = messages
                if tracer.enabled:
                    # The frame covers the contiguous sequence run
                    # [first_seq, last_seq] — the trace context that lets
                    # span reconstruction tie a peer's data.receive back
                    # to this frame.
                    tracer.emit(
                        self._trace_node,
                        "data.frame_send",
                        peer=channel.peer,
                        origin=self._trace_node,
                        first_seq=first,
                        last_seq=last,
                        messages=messages,
                        bytes=run_bytes,
                        cause=cause,
                    )

    # -- backpressure ------------------------------------------------------------
    def on_backpressure(self, fn: BackpressureFn) -> None:
        """Register ``fn(engaged, buffered_bytes)``; fired when the
        retained buffer crosses the high watermark and again when
        reclamation drains it below the low one."""
        self._bp_handlers.append(fn)

    def remove_backpressure(self, fn: BackpressureFn) -> None:
        try:
            self._bp_handlers.remove(fn)
        except ValueError:
            pass

    @property
    def backpressure_engaged(self) -> bool:
        return self._bp_engaged

    def _update_backpressure(self) -> None:
        if self._bp_high is None:
            return
        buffered = self.buffer.buffered_bytes()
        if not self._bp_engaged and buffered >= self._bp_high:
            self._bp_engaged = True
        elif self._bp_engaged and buffered <= self._bp_low:
            self._bp_engaged = False
        else:
            return
        self.backpressure_events += 1
        if self.tracer.enabled:
            self.tracer.emit(
                self._trace_node,
                "data.backpressure",
                engaged=self._bp_engaged,
                buffered=buffered,
            )
        for fn in list(self._bp_handlers):
            fn(self._bp_engaged, buffered)

    # -- reclamation -------------------------------------------------------------
    def reclaim_up_to(self, seq: int) -> int:
        """Called by the facade once ``seq`` is delivered everywhere.

        "Everywhere" is the current owner set; while a rebalance is
        changing it (``hold_reclaim``) nothing is released: a joiner
        restores from a state transfer that predates acknowledgments
        still arriving from the old owners, and must be able to have the
        difference replayed after the cutover."""
        if self.hold_reclaim:
            return 0
        released = self.buffer.reclaim_up_to(seq)
        if released:
            if self.tracer.enabled:
                self.tracer.emit(
                    self._trace_node,
                    "data.reclaim",
                    up_to=seq,
                    released=released,
                )
            self._update_backpressure()
        return released

    def replay_to(self, peer: str, from_seq: int) -> int:
        """Re-stream every buffered chunk above ``from_seq`` to ``peer``.

        Crash-restart catch-up (Section III-E): the restarted peer told us
        the highest sequence it holds for our stream; everything above it
        that we still buffer is resent on a *reset* transport stream so
        the peer's fresh receiver accepts it.  Returns the chunk count.
        Raises if reclaim has already discarded part of the requested
        range — that cannot happen when the peer restarts from a snapshot
        taken at crash time, because reclaim waits for *everyone*.
        """
        channel = self._channels.get(peer)
        if channel is None:
            raise StabilizerError(f"no data channel to {peer!r}")
        if self.buffer.reclaimed_up_to > from_seq:
            raise StabilizerError(
                f"cannot replay to {peer!r} from seq {from_seq}: buffer "
                f"reclaimed up to {self.buffer.reclaimed_up_to}"
            )
        channel.reset_stream()
        first = min(from_seq + 1, self._next_seq)
        count = self._next_seq - first
        frames = self._cut(first)
        self.payload_bytes_sent += sum(frame[2] for frame in frames)
        self.replayed_chunks += count
        self._ship(frames, (channel,), "replay")
        if self.tracer.enabled:
            self.tracer.emit(
                self._trace_node,
                "data.replay",
                peer=peer,
                from_seq=from_seq,
                chunks=count,
            )
        return count

    def restore_next_seq(self, seq: int) -> None:
        """Resume this node's stream at ``seq`` from a snapshot (what lies
        below is :meth:`replay_to`'s)."""
        self._next_seq = max(self._next_seq, seq)

    # -- receiving side ------------------------------------------------------------
    def highest_received(self, origin: str) -> int:
        return self._highest_received.get(origin, 0)

    def restore_highest_received(self, origin: str, seq: int) -> None:
        """Reinstate the per-origin receive watermark from a snapshot, so
        a restarted node resumes each incoming stream where it left off
        instead of treating the next chunk as a mid-stream join."""
        if seq > 0:
            self._highest_received[origin] = max(
                self._highest_received.get(origin, 0), seq
            )

    @staticmethod
    def _short_frame(length: int, lengths) -> TransportError:
        return TransportError(
            f"frame length {length} does not cover its "
            f"{len(lengths)} messages ({sum(lengths)}B)"
        )

    @staticmethod
    def _out_of_order(origin: str, seq: int, expected: int) -> StabilizerError:
        return StabilizerError(
            f"origin {origin!r}: chunk seq {seq} arrived out of order "
            f"(expected {expected}); the FIFO transport is broken"
        )

    def _receive(self, origin: str, payload: Payload, meta) -> None:
        """Apply one frame that arrived from ``origin`` — the data
        channel's ``on_deliver``, bound to its origin.

        First the epoch fence, then the unpack: a coalesced frame's meta
        is ``(FRAME_TAG, metas, lengths)`` over one joined payload, whose
        parts are zero-copy slices of it — or, for a synthetic frame, its
        lengths (a part becomes a :class:`SyntheticPayload` only where
        something takes it as a payload); a lone message is a run of one.
        The metas are those of a contiguous run ``[first, last]`` of
        ``origin``'s stream.

        The run is validated whole before any state moves; then the
        receive watermark advances once and ``on_arrival(origin, last,
        first)`` runs once — the ACK table, the report batcher and the
        frontier engine see one update per frame, because only the last
        sequence of a run carries information for monotonic state.  Only
        what is inherently per message stays per message: reassembly,
        ``on_received`` and ``on_deliver``.

        Reassembly is in order: the chunks of an object are consecutive
        sequences, so the one object in progress grows by the chunk
        that continues it and is joined once, on its last chunk.  A chunk
        that neither starts an object (index 0) nor continues the one in
        progress is the orphaned tail of an object whose head this node
        never held — a receiver resumed mid-object from a snapshot — and
        is dropped; it can never complete.

        Reassembly only serves a consumer: ``on_deliver`` or the tracer's
        ``data.deliver``.  While neither is there and no object of
        ``origin`` is mid-assembly, a run skips it and is kept by
        reference only if the object in progress after it — begun in it
        or in a run kept before it — is unfinished; a run that ends an
        object drops every kept run of its origin.  The first run that
        meets a consumer replays the kept runs through the reassembler,
        delivering and tracing nothing, so the object in progress is
        whole when that run continues it.
        """
        frame_epoch, meta = meta
        if frame_epoch != self.epoch:
            # Epoch fence: the sender is running a different shard
            # layout.  Its row indices and owner sets do not match ours —
            # routing the frame into our tables would corrupt them.  Drop
            # it; the sender learns the new layout from the rebalance
            # coordinator, not from us.
            self.stale_epoch_frames += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    self._trace_node,
                    "data.epoch_fenced",
                    origin=origin,
                    frame_epoch=frame_epoch,
                    local_epoch=self.epoch,
                )
            return
        synthetic = type(payload) is SyntheticPayload
        if meta[0] == FRAME_TAG:
            _tag, metas, lengths = meta
            self.frames_received += 1
            if synthetic:
                # A synthetic frame's parts are its lengths.
                if sum(lengths) != payload.length:
                    raise self._short_frame(payload.length, lengths)
                parts = lengths
            else:
                # Zero-copy: each message is a slice of the arrived frame.
                view = memoryview(payload)
                if sum(lengths) != len(view):
                    raise self._short_frame(len(view), lengths)
                parts = []
                offset = 0
                for length in lengths:
                    parts.append(view[offset : offset + length])
                    offset += length
        else:
            metas = (meta,)
            parts = (payload.length,) if synthetic else (payload,)
        first_meta = metas[0]
        first = first_meta[0]
        last = first - 1
        for meta in metas:
            last += 1
            if meta[0] != last:
                raise self._out_of_order(origin, meta[0], last)
        held = self._highest_received.get(origin)
        if held is None:
            # First contact, possibly with a stream already in progress:
            # a mirror joining (or rejoining after losing its state)
            # adopts the origin's position.  Earlier messages belong to
            # state transfer, not the live stream — but adoption must
            # start at an object boundary or the first object could
            # never complete.
            if first != 1 and first_meta[2] != 0:
                raise StabilizerError(
                    f"origin {origin!r}: joined mid-object (chunk "
                    f"{first_meta[2] + 1}/{first_meta[3]} of object "
                    f"{first_meta[1]})"
                )
            held = first - 1
        if first > held + 1:
            raise self._out_of_order(origin, first, held + 1)
        tracer = self.tracer
        tracing = tracer.enabled
        if first <= held:
            # A crash-restart replay can resend chunks we already hold:
            # the peer's view of our received-watermark lags by control
            # latency.  Duplicates are harmless — drop the held prefix.
            dropped = min(held, last) - first + 1
            self.duplicates_dropped += dropped
            if tracing:
                for seq in range(first, first + dropped):
                    if tracer.sampled(origin, seq):
                        tracer.emit(
                            self._trace_node,
                            "data.duplicate",
                            origin=origin,
                            seq=seq,
                        )
            if last <= held:
                return
            metas = metas[dropped:]
            parts = parts[dropped:]
            first = held + 1
        self._highest_received[origin] = last
        self.messages_received += last - held
        if tracing:
            for meta in metas:
                if tracer.sampled(origin, meta[0]):
                    tracer.emit(
                        self._trace_node,
                        "data.receive",
                        origin=origin,
                        seq=meta[0],
                        object=meta[1],
                    )
        if self.on_arrival is not None:
            self.on_arrival(origin, last, first)
        on_received = self.on_received
        on_deliver = self.on_deliver
        kept = self._kept
        if on_deliver is None and not tracing and origin not in self._objects:
            # Nothing consumes an object: reassembly waits (see docstring).
            if on_received is not None:
                for meta, part in zip(metas, parts):
                    on_received(
                        origin, meta[0], SyntheticPayload(part) if synthetic else part
                    )
            meta = metas[-1]
            index = meta[2]
            if index + 1 == meta[3]:
                if kept:
                    kept.pop(origin, None)  # an object boundary: keep nothing
            elif last - index >= first:
                # The head of the object in progress is in this frame.
                kept[origin] = [(metas, parts, synthetic)]
            elif origin in kept:
                kept[origin].append((metas, parts, synthetic))
            # else the frame is an orphaned tail: there is nothing to keep.
            return
        if kept and origin in kept:
            # The first consumer: rebuild the object in progress first.
            for frame in kept.pop(origin):
                self._assemble(origin, *frame, None, None, False)
        self._assemble(origin, metas, parts, synthetic, on_received, on_deliver, tracing)

    def _assemble(
        self, origin, metas, parts, synthetic, on_received, on_deliver, tracing
    ) -> None:
        """Reassemble the messages of one arrived run (``metas`` with their
        ``parts``) in order: each goes to ``on_received`` (if any), and each
        object it completes to ``on_deliver`` (if any), traced as
        ``data.deliver`` while ``tracing``."""
        tracer = self.tracer
        objects = self._objects
        obj = objects.get(origin)  # [object_id, next_index, parts, synthetic]
        for meta, part in zip(metas, parts):
            seq, object_id, index, count, user_meta = meta
            if on_received is not None:
                on_received(origin, seq, SyntheticPayload(part) if synthetic else part)
            if count == 1:
                complete = SyntheticPayload(part) if synthetic else part
            elif index == 0:
                obj = objects[origin] = [object_id, 1, [part], synthetic]
                continue
            elif obj is not None and obj[1] == index and obj[0] == object_id:
                if synthetic != obj[3]:
                    # A synthetic frame carried some of this object: it is
                    # synthetic as a whole, its parts kept as lengths.
                    if synthetic:
                        obj[2] = [len(p) for p in obj[2]]
                        obj[3] = True
                    else:
                        part = len(part)
                obj[2].append(part)
                if index + 1 < count:
                    obj[1] = index + 1
                    continue
                if obj[3]:
                    complete = SyntheticPayload(sum(obj[2]))
                else:
                    complete = b"".join(obj[2])
                del objects[origin]
                obj = None
            else:
                continue  # an orphan: see _receive
            if tracing and tracer.sampled(origin, seq):
                tracer.emit(
                    self._trace_node,
                    "data.deliver",
                    origin=origin,
                    seq=seq,
                    object=object_id,
                )
            if on_deliver is not None:
                on_deliver(origin, seq, complete, user_meta)
