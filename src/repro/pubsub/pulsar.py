"""A model of Apache Pulsar's geo-replicated non-persistent pub/sub.

The paper compares its prototype against Pulsar (Section VI-C) and
attributes two behaviours to it:

1. **JVM garbage collection.**  "Pulsar shows growth in latency.  We
   believe this is associated with garbage collection within its JVM."
   :class:`GcModel` charges each processed message an allocation cost and
   injects a stop-the-world pause whenever the accumulated allocations
   cross the young-generation budget — so latency grows with message rate
   even on an unloaded LAN link.

2. **Silent drop on slow WAN links.**  "If the local broker finds that the
   link to the remote broker is temporarily inaccessible it turns out that
   the local broker will silently abandon sending the message."  With
   ``buffer_fix=False`` a publish towards a link whose backlog exceeds
   ``drop_backlog_s`` seconds is dropped; ``buffer_fix=True`` reproduces
   the paper's modification ("introduces buffering and ensures that Pulsar
   continues to try, eventually sending all messages and preserving sender
   order").

Brokers relay publisher messages to every peer broker and send small acks
back so the publisher can compute end-to-end latency, mirroring how the
paper measures both systems identically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import PubSubError
from repro.net.topology import Network
from repro.transport.endpoint import TransportEndpoint
from repro.transport.messages import Payload, SyntheticPayload, payload_length

PULSAR_PORT = "pulsar.transport"
DATA_CHANNEL = "pulsar.data"
ACK_CHANNEL = "pulsar.ack"
ACK_BYTES = 24

MessageFn = Callable[[str, int, Payload, object], None]


class GcModel:
    """Stop-the-world pauses driven by allocation volume.

    Defaults approximate a busy JVM broker: ~3 bytes allocated per payload
    byte (serialization copies), an 8 MB surviving-allocation budget per
    collection, and pauses that start around 12 ms and stretch as the old
    generation fills.
    """

    def __init__(
        self,
        alloc_factor: float = 3.0,
        young_gen_bytes: float = 8e6,
        base_pause_s: float = 0.012,
        pause_growth_s: float = 0.0008,
        max_pause_s: float = 0.12,
        cpu_per_message_s: float = 0.00002,
    ):
        self.alloc_factor = alloc_factor
        self.young_gen_bytes = young_gen_bytes
        self.base_pause_s = base_pause_s
        self.pause_growth_s = pause_growth_s
        self.max_pause_s = max_pause_s
        self.cpu_per_message_s = cpu_per_message_s
        self._allocated = 0.0
        self.collections = 0
        self.total_pause_s = 0.0

    def process(self, size_bytes: int) -> float:
        """CPU + GC time charged for handling one message of this size."""
        cost = self.cpu_per_message_s
        self._allocated += size_bytes * self.alloc_factor
        if self._allocated >= self.young_gen_bytes:
            self._allocated -= self.young_gen_bytes
            pause = min(
                self.base_pause_s + self.pause_growth_s * self.collections,
                self.max_pause_s,
            )
            self.collections += 1
            self.total_pause_s += pause
            cost += pause
        return cost


class PulsarBroker:
    """One Pulsar broker; see module docstring."""

    def __init__(
        self,
        net: Network,
        name: str,
        cluster: "PulsarCluster",
    ):
        self.net = net
        self.sim = net.sim
        self.name = name
        self.cluster = cluster
        self.endpoint = TransportEndpoint(net, name, port=PULSAR_PORT)
        self.gc: Optional[GcModel] = GcModel() if cluster.gc_enabled else None
        self._busy_until = 0.0
        self._peers = [n for n in net.topology.node_names() if n != name]
        self.endpoint.accept(DATA_CHANNEL, self._on_data)
        self.endpoint.accept(ACK_CHANNEL, self._on_ack)
        self._subscribers: List[MessageFn] = []
        self._next_seq = 1
        self.send_times: Dict[int, float] = {}
        # ack_times[(site, seq)] -> publisher-observed completion time.
        self.ack_times: Dict[tuple, float] = {}
        self.published = 0
        self.delivered = 0
        self.dropped = 0

    # ------------------------------------------------------------------ client API
    def publish(self, payload: Payload, meta=None) -> int:
        seq = self._next_seq
        self._next_seq += 1
        self.published += 1
        self.send_times[seq] = self.sim.now
        self._process(payload_length(payload))
        for subscriber in list(self._subscribers):
            subscriber(self.name, seq, payload, meta)
        for peer in self._peers:
            link = self.net.link(self.name, peer)
            inaccessible = (
                not link.up
                or link.queueing_delay() > self.cluster.drop_backlog_s
            )
            if inaccessible and not self.cluster.buffer_fix:
                self.dropped += 1  # Pulsar's silent abandon
                continue
            channel = self.endpoint.channel(peer, DATA_CHANNEL)
            channel.send(payload, meta=(seq, meta))
        return seq

    def subscribe(self, callback: MessageFn) -> None:
        self._subscribers.append(callback)

    # ------------------------------------------------------------------ broker internals
    def _process(self, size_bytes: int) -> float:
        """Charge broker CPU/GC time; returns when processing finishes."""
        if self.gc is None:
            return self.sim.now
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + self.gc.process(size_bytes)
        return self._busy_until

    def _on_data(self, origin: str, payload: Payload, meta) -> None:
        seq, user_meta = meta
        ready_at = self._process(payload_length(payload))
        delay = max(0.0, ready_at - self.sim.now)
        if delay > 0:
            self.sim.call_later(delay, self._deliver, origin, seq, payload, user_meta)
        else:
            self._deliver(origin, seq, payload, user_meta)

    def _deliver(self, origin: str, seq: int, payload: Payload, meta) -> None:
        self.delivered += 1
        for subscriber in list(self._subscribers):
            subscriber(origin, seq, payload, meta)
        self.endpoint.channel(origin, ACK_CHANNEL).send(
            SyntheticPayload(ACK_BYTES), meta=seq
        )

    def _on_ack(self, site: str, _payload, seq: int) -> None:
        self.ack_times[(site, seq)] = self.sim.now


class PulsarCluster:
    """One broker per topology node."""

    def __init__(
        self,
        net: Network,
        gc_enabled: bool = True,
        buffer_fix: bool = True,
        drop_backlog_s: float = 1.0,
    ):
        if drop_backlog_s <= 0:
            raise PubSubError("drop_backlog_s must be positive")
        self.net = net
        self.gc_enabled = gc_enabled
        self.buffer_fix = buffer_fix
        self.drop_backlog_s = drop_backlog_s
        self.brokers: Dict[str, PulsarBroker] = {}
        for name in net.topology.node_names():
            self.brokers[name] = PulsarBroker(net, name, self)

    def __getitem__(self, name: str) -> PulsarBroker:
        return self.brokers[name]
