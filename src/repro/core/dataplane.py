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

The send path is *pipelined* per peer.  Each remote peer has one stream:
the not-yet-framed tail of this node's sequence.  It is the one send
queue — the FIFO channel under it sends every frame at once — and the one
place the send window (``window_bytes``) is kept:

- sequenced messages coalesce into WAN frames of up to ``frame_bytes``
  (one transport header and one link packet per frame instead of per
  message; ``None``, a frame per message), cut immediately at the end of
  each ``send()`` call, when a frame fills, when the ``frame_delay_ms``
  frame clock ticks, or the moment an ACK returns credits to the peer;
- a run is cut only if nothing is in flight on the peer's channel, or if
  the bytes in flight plus the run's wire size (payload, transport
  header, and a batch entry per message for a run of two or more) fit in
  the window.  Otherwise the stream *stalls* until an ACK retires frames,
  so a slow or suspected peer backpressures only its own stream.
  Crash-restart replay goes through the same stream and the same rule;
- the retained send buffer is bounded (``max_buffer_bytes``): when the
  WAN cannot drain, ``send()`` either raises
  :class:`~repro.errors.BackpressureError` or — under the ``"block"``
  policy — admits the message and signals the registered backpressure
  callbacks so the producer pauses itself.

The receive path applies an arrived frame — a contiguous run ``[first,
last]`` of one origin's stream — as one unit: the run is validated whole,
the receive watermark advances once and the control plane hears of
``last`` once (acknowledgment state is monotonic, so only the last
sequence of a run carries information); reassembly, the durability
append and delivery stay per message.  A lone message is a run of one.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.config import StabilizerConfig
from repro.errors import BackpressureError, StabilizerError, TransportError
from repro.transport.chunker import Chunker
from repro.transport.endpoint import TransportEndpoint
from repro.transport.fifo import TRANSPORT_HEADER_BYTES
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
SentFn = Callable[[int, Payload], None]
BackpressureFn = Callable[[bool, int], None]

#: Backpressure engages when the retained buffer passes this fraction of
#: ``max_buffer_bytes`` and releases once reclamation drains it below
#: ``BACKPRESSURE_LOW`` — hysteresis, so callbacks do not flap.
BACKPRESSURE_HIGH = 0.75
BACKPRESSURE_LOW = 0.5


class _BufferEntry:
    __slots__ = ("seq", "size", "meta", "payload", "chunk_meta")

    def __init__(self, seq: int, size: int, meta, payload=None, chunk_meta=None):
        self.seq = seq
        self.size = size
        self.meta = meta
        # The chunk itself, retained for crash-restart replay: "it can
        # also buffer data for later transmission if needed".
        self.payload = payload
        self.chunk_meta = chunk_meta


class SendBuffer:
    """Retains sent chunks until they are globally delivered.

    ``max_bytes`` is a soft bound: ``add`` never refuses a chunk.  The
    data plane applies its send policy against :meth:`would_overflow`
    *before* it sequences a message, so a ``"block"``-policy overflow
    stays soft.
    """

    def __init__(self, max_bytes: Optional[int] = None):
        self.max_bytes = max_bytes
        self._entries: Dict[int, _BufferEntry] = {}
        self._bytes = 0
        self._reclaimed_up_to = 0
        self.total_reclaimed = 0

    def would_overflow(self, nbytes: int) -> bool:
        return self.max_bytes is not None and self._bytes + nbytes > self.max_bytes

    def add(
        self, seq: int, size: int, meta=None, payload=None, chunk_meta=None
    ) -> _BufferEntry:
        entry = _BufferEntry(seq, size, meta, payload, chunk_meta)
        self._entries[seq] = entry
        self._bytes += size
        return entry

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


class _PeerStream:
    """One peer's share of the pipelined send path: the not-yet-framed
    tail of the stream plus its frame-clock timer and stall state."""

    __slots__ = ("peer", "channel", "pending", "pending_bytes", "timer", "stalled")

    def __init__(self, peer: str, channel):
        self.peer = peer
        self.channel = channel
        self.pending: Deque[_BufferEntry] = deque()
        self.pending_bytes = 0
        self.timer = None
        self.stalled = False

    def clear(self) -> None:
        self.pending.clear()
        self.pending_bytes = 0
        self.stalled = False
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class DataPlane:
    """See module docstring."""

    def __init__(
        self,
        endpoint: TransportEndpoint,
        config: StabilizerConfig,
        on_deliver: Optional[DeliverFn] = None,
        on_received: Optional[ReceivedFn] = None,
        on_sent: Optional[SentFn] = None,
        on_arrival: Optional[ArrivalFn] = None,
    ):
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.config = config
        self.on_deliver = on_deliver
        # Per message of an arrived run: ``on_received(origin, seq,
        # payload)`` — the durability layer's ingest point for remote
        # streams (wired only when durability is on).
        self.on_received = on_received
        # Once per arrived frame: ``on_arrival(origin, last, first)`` —
        # ``origin``'s stream is now held contiguously up to ``last`` (the
        # run that just arrived began at ``first``).  The stabilization
        # engine's ``received`` grant hangs here.
        self.on_arrival = on_arrival
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
        self._send_policy = config.send_policy
        self._next_seq = 1  # message sequence numbers are 1-based
        # No coalescing is a frame_bytes of 0: every run is one message.
        self._frame_bytes = config.frame_bytes or 0
        self._frame_delay_s = config.frame_delay_s()
        self._window_bytes = config.window_bytes
        endpoint.accept(DATA_CHANNEL, self._receive, **config.channel_kwargs())
        self._streams: Dict[str, _PeerStream] = {}
        for peer in config.remote_names():
            channel = endpoint.channel(peer, DATA_CHANNEL)
            stream = self._streams[peer] = _PeerStream(peer, channel)
            channel.on_window_open = partial(self._window_open, stream)
        # Receiving state, per origin.  An object's chunks are consecutive
        # messages of its origin's FIFO stream, so an origin has at most one
        # object in progress: ``[object_id, next_index, parts, synthetic]``
        # (``synthetic`` once a part arrived as a length).
        self._objects: Dict[str, list] = {}
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
        self.flush_causes = {
            "inline": 0, "size": 0, "timer": 0, "window": 0, "replay": 0
        }
        self.window_stalls = 0
        self.window_opens = 0
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
        the next sequence number; chunks coalesce into WAN frames per
        peer (see module docstring).  Returns ``(first_seq, last_seq)``;
        the message's stability is the stability of ``last_seq``.
        """
        object_id, parts, sizes = self.chunker.split(payload)
        if self.buffer.would_overflow(sum(sizes)) and self._send_policy == "except":
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
        streams = self._streams.values()
        fanout = len(self._streams)
        count = len(parts)
        index = 0
        for part, size in zip(parts, sizes):
            seq = self._next_seq
            self._next_seq += 1
            chunk_meta: ChunkMeta = (seq, object_id, index, count, meta)
            index += 1
            entry = self.buffer.add(
                seq, size, meta, payload=part, chunk_meta=chunk_meta
            )
            if tracing and tracer.sampled(self._trace_node, seq):
                tracer.emit(
                    self._trace_node,
                    "data.enqueue",
                    origin=self._trace_node,
                    seq=seq,
                    bytes=size,
                    object=object_id,
                )
            for stream in streams:
                stream.pending.append(entry)
                stream.pending_bytes += size
            self.messages_sent += 1
            self.payload_bytes_sent += size * fanout
            if self.on_sent is not None:
                self.on_sent(seq, part)
        for stream in streams:
            self._pump(stream, "inline")
        self._update_backpressure()
        return first_seq, self._next_seq - 1

    def last_sent_seq(self) -> int:
        return self._next_seq - 1

    # -- frame pipeline ----------------------------------------------------------
    def _window_open(self, stream: _PeerStream) -> None:
        """The channel's ``on_window_open``: an ACK retired frames to
        ``stream.peer``, so cut what the window now lets fly."""
        if stream.pending:
            if stream.stalled:
                self.window_opens += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        self._trace_node,
                        "window.open",
                        peer=stream.peer,
                        pending=stream.pending_bytes,
                    )
            self._pump(stream, "window")

    def _frame_tick(self, stream: _PeerStream) -> None:
        stream.timer = None
        if stream.pending:
            self._pump(stream, "timer")

    def _pump(self, stream: _PeerStream, cause: str) -> None:
        """Cut as many frames as the flush policy and window allow."""
        channel = stream.channel
        if channel.closed:
            stream.clear()
            return
        # With a frame clock, an inline flush ships only *full* frames;
        # the partial tail waits for the timer (or a window-open event).
        # With no clock (frame_delay 0) every flush drains everything.
        only_full = cause == "inline" and self._frame_delay_s > 0.0
        while stream.pending:
            if only_full and stream.pending_bytes < self._frame_bytes:
                break
            if not self._cut_frame(stream, cause):
                if not stream.stalled:
                    stream.stalled = True
                    self.window_stalls += 1
                    if self.tracer.enabled:
                        self.tracer.emit(
                            self._trace_node,
                            "window.stall",
                            peer=stream.peer,
                            pending=stream.pending_bytes,
                            inflight=channel.unacked_bytes(),
                        )
                return  # the next ACK that retires frames resumes it
        stream.stalled = False
        if (
            stream.pending
            and self._frame_delay_s > 0.0
            and stream.timer is None
        ):
            stream.timer = self.sim.call_later(
                self._frame_delay_s, self._frame_tick, stream
            )

    def _cut_frame(self, stream: _PeerStream, cause: str) -> bool:
        """Ship the next frame off ``stream``'s pending tail — the run of
        entries that fits in ``frame_bytes`` (always at least one) — if
        the window lets it fly (see module docstring); False if not."""
        pending = stream.pending
        frame_bytes = self._frame_bytes
        run_bytes = messages = 0
        for entry in pending:
            if messages and run_bytes + entry.size > frame_bytes:
                break  # frame full; the next frame takes it
            run_bytes += entry.size
            messages += 1
            if run_bytes >= frame_bytes:
                break
        channel = stream.channel
        inflight = channel._unacked_bytes
        if inflight and self._window_bytes is not None:
            wire = run_bytes + TRANSPORT_HEADER_BYTES
            if messages > 1:
                wire += BATCH_ENTRY.size * messages
            if inflight + wire > self._window_bytes:
                return False
        first = pending.popleft()
        if messages == 1:
            # A lone message needs no batch framing: its chunk ships as is.
            last_seq = first.seq
            channel.send(first.payload, meta=(self.epoch, first.chunk_meta))
        else:
            # One pass over the run; real payloads are joined once, here —
            # the frame's one copy.  A frame with any synthetic part is one
            # SyntheticPayload of the run's length (experiments at that
            # scale never inspect bytes).
            parts = [first.payload]
            metas = [first.chunk_meta]
            lengths = [first.size]
            synthetic = type(first.payload) is SyntheticPayload
            for _ in range(messages - 1):
                entry = pending.popleft()
                parts.append(entry.payload)
                metas.append(entry.chunk_meta)
                lengths.append(entry.size)
                if type(entry.payload) is SyntheticPayload:
                    synthetic = True
            last_seq = metas[-1][0]
            channel.send(
                SyntheticPayload(run_bytes) if synthetic else b"".join(parts),
                meta=(self.epoch, (FRAME_TAG, tuple(metas), tuple(lengths))),
                wire_overhead=BATCH_ENTRY.size * messages,
            )
        stream.pending_bytes -= run_bytes
        self.frames_sent += 1
        self.frame_messages += messages
        self.frame_payload_bytes += run_bytes
        if messages > self.max_frame_messages:
            self.max_frame_messages = messages
        cause_key = (
            "size"
            if cause == "inline" and messages > 1 and self._frame_delay_s > 0.0
            else cause
        )
        self.flush_causes[cause_key] = self.flush_causes.get(cause_key, 0) + 1
        if self.tracer.enabled:
            # The frame covers the contiguous sequence run [first_seq,
            # last_seq] — the trace context that lets span reconstruction
            # tie a peer's data.receive back to this frame.
            self.tracer.emit(
                self._trace_node,
                "data.frame_send",
                peer=stream.peer,
                origin=self._trace_node,
                first_seq=first.seq,
                last_seq=last_seq,
                messages=messages,
                bytes=run_bytes,
                cause=cause,
            )
        return True

    def flush(self) -> None:
        """Cut every partial frame now, window permitting — the manual
        counterpart of the frame clock (e.g. before a planned shutdown)."""
        for stream in self._streams.values():
            if stream.pending:
                self._pump(stream, "timer")

    def pending_frame_bytes(self, peer: str) -> int:
        """Bytes accumulated for ``peer`` that no frame has shipped yet."""
        stream = self._streams.get(peer)
        return stream.pending_bytes if stream is not None else 0

    def window_stalled(self, peer: str) -> bool:
        """True while ``peer``'s stream waits on window credits."""
        stream = self._streams.get(peer)
        return stream is not None and stream.stalled

    def close(self) -> None:
        """Cancel frame-clock timers (the node is going away)."""
        for stream in self._streams.values():
            stream.clear()

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
        stream = self._streams.get(peer)
        if stream is None:
            raise StabilizerError(f"no data channel to {peer!r}")
        if self.buffer.reclaimed_up_to > from_seq:
            raise StabilizerError(
                f"cannot replay to {peer!r} from seq {from_seq}: buffer "
                f"reclaimed up to {self.buffer.reclaimed_up_to}"
            )
        # The unframed tail is a subset of the buffered entries about to
        # be replayed: they replace it, and leave as any tail does.
        stream.clear()
        stream.channel.reset_stream()
        entries = self.buffer.entries_above(from_seq)
        stream.pending.extend(entries)
        stream.pending_bytes = sum(entry.size for entry in entries)
        count = len(entries)
        self.payload_bytes_sent += stream.pending_bytes
        self.replayed_chunks += count
        self._pump(stream, "replay")
        if self.tracer.enabled:
            self.tracer.emit(
                self._trace_node,
                "data.replay",
                peer=peer,
                from_seq=from_seq,
                chunks=count,
            )
        return count

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
                continue  # an orphan: see the docstring
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
