"""The Stabilizer-based pub/sub broker (one per data center).

"The publish API merely multicasts the data to remote peer brokers through
the asynchronous data plane.  The subscribe API allows a client to
register a callback ...  After receiving a first subscription request, the
broker becomes active as a member of the active broker list."  The broker
announces activation/deactivation to its peers over a small management
channel; the *publisher-side* broker folds the active list into its
per-topic ``reliable`` stability predicate via ``change_predicate`` — so a
publisher never waits on a site without subscribers (Section VI-D).

The paper's prototype handles a single topic and no persistence, noting
both "would be easy to introduce".  This implementation introduces them:

- **Topics.**  Subscriptions, active-site tracking and reliable predicates
  are all per topic; messages for a topic a site does not subscribe to are
  still mirrored by the data plane (the stream is shared) but never reach
  a callback and never gate the publisher's predicate.
- **Persistence.**  With ``persistent=True`` a broker appends every
  delivered message to an :class:`~repro.storage.log.AppendLog` and
  reports the ``persisted`` stability level, so publishers can demand
  ``MIN((...).persisted)`` durability.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.core.stabilizer import Stabilizer
from repro.errors import PubSubError
from repro.storage.log import AppendLog
from repro.transport.messages import Payload, SyntheticPayload, payload_length

MGMT_CHANNEL = "pubsub.mgmt"
MGMT_FRAME_BYTES = 32
DEFAULT_TOPIC = "default"
RELIABLE_KEY = "reliable"

MessageFn = Callable[[str, int, Payload, object], None]


def reliable_key(topic: str) -> str:
    """Predicate key guarding reliable delivery of ``topic``."""
    return RELIABLE_KEY if topic == DEFAULT_TOPIC else f"reliable:{topic}"


class Subscription:
    """Handle returned by :meth:`StabilizerBroker.subscribe`."""

    def __init__(self, broker: "StabilizerBroker", topic: str, callback: MessageFn):
        self.broker = broker
        self.topic = topic
        self.callback = callback
        self.active = True

    def unsubscribe(self) -> None:
        if self.active:
            self.active = False
            self.broker._remove_subscription(self)


class StabilizerBroker:
    """See module docstring.  Wraps one node's Stabilizer instance."""

    def __init__(self, stabilizer: Stabilizer, persistent: bool = False,
                 log: Optional[AppendLog] = None):
        self.stabilizer = stabilizer
        self.sim = stabilizer.sim
        self.name = stabilizer.name
        self.persistent = persistent
        self.log = log if log is not None else (AppendLog() if persistent else None)
        self._subscriptions: Dict[str, List[Subscription]] = {}
        # topic -> sites (possibly including ourselves) with subscribers.
        self._active_sites: Dict[str, Set[str]] = {}
        stabilizer.endpoint.accept(MGMT_CHANNEL, self._on_mgmt)
        stabilizer.on_delivery(self._on_remote_message)
        self.send_times: Dict[int, float] = {}
        self.published = 0
        self.delivered = 0
        self.persisted = 0
        self._install_predicate(DEFAULT_TOPIC)

    # ------------------------------------------------------------------ publish
    def publish(self, payload: Payload, meta=None, topic: str = DEFAULT_TOPIC) -> int:
        """Multicast one message on ``topic``; returns its sequence number.

        Local subscribers receive it synchronously (no network hop);
        remote sites receive it through the data plane.
        """
        self._check_topic(topic)
        seq = self.stabilizer.send(payload, meta=("pubsub", topic, meta))
        self.send_times[seq] = self.sim.now
        self.published += 1
        for subscription in list(self._subscriptions.get(topic, ())):
            subscription.callback(self.name, seq, payload, meta)
        return seq

    def publish_reliable(self, payload: Payload, meta=None, topic: str = DEFAULT_TOPIC):
        """Publish and return ``(seq, event)``; the event succeeds when the
        message satisfies the topic's broker-managed reliable predicate."""
        if reliable_key(topic) not in self.stabilizer.engine.predicate_keys():
            self._install_predicate(topic)
        seq = self.publish(payload, meta, topic)
        return seq, self.stabilizer.waitfor(seq, reliable_key(topic))

    # ------------------------------------------------------------------ subscribe
    def subscribe(self, callback: MessageFn, topic: str = DEFAULT_TOPIC) -> Subscription:
        """Register ``callback(origin, seq, payload, meta)`` on ``topic``."""
        self._check_topic(topic)
        subscription = Subscription(self, topic, callback)
        self._subscriptions.setdefault(topic, []).append(subscription)
        if len(self._subscriptions[topic]) == 1:
            self._announce(topic, True)
        return subscription

    def topics(self) -> List[str]:
        """Topics with at least one local subscriber."""
        return [t for t, subs in self._subscriptions.items() if subs]

    def active_sites(self, topic: str = DEFAULT_TOPIC) -> Set[str]:
        return set(self._active_sites.get(topic, ()))

    def _remove_subscription(self, subscription: Subscription) -> None:
        subs = self._subscriptions.get(subscription.topic, [])
        try:
            subs.remove(subscription)
        except ValueError:
            raise PubSubError("subscription already removed") from None
        if not subs:
            self._announce(subscription.topic, False)

    # ------------------------------------------------------------------ membership
    def _announce(self, topic: str, active: bool) -> None:
        sites = self._active_sites.setdefault(topic, set())
        if active:
            sites.add(self.name)
        else:
            sites.discard(self.name)
        self._install_predicate(topic)
        kind = "subscribed" if active else "unsubscribed"
        endpoint = self.stabilizer.endpoint
        for peer in self.stabilizer.config.remote_names():
            endpoint.channel(peer, MGMT_CHANNEL).send(
                SyntheticPayload(MGMT_FRAME_BYTES + len(topic)),
                meta=(kind, self.name, topic),
            )

    def _on_mgmt(self, peer: str, _payload, meta) -> None:
        kind, site, topic = meta
        sites = self._active_sites.setdefault(topic, set())
        if kind == "subscribed":
            sites.add(site)
        elif kind == "unsubscribed":
            sites.discard(site)
        else:
            raise PubSubError(f"unknown management message {kind!r}")
        self._install_predicate(topic)

    def _install_predicate(self, topic: str) -> None:
        """(Re)build the topic's reliable predicate from its active list.

        Reliability requires "every broker with any subscriber" to receive
        the message; sites without subscribers are excluded so the
        publisher "will not wait unnecessarily".  A persistent deployment
        demands the ``persisted`` level instead of mere receipt.
        """
        remote_active = sorted(
            site
            for site in self._active_sites.get(topic, ())
            if site != self.name
        )
        if remote_active:
            suffix = ".persisted" if self.persistent else ""
            terms = ", ".join(f"$WNODE_{site}{suffix}" for site in remote_active)
            source = f"MIN({terms})"
        else:
            # Nobody remote cares: locally sent means reliable.
            source = "MAX($MYWNODE)"
        key = reliable_key(topic)
        if key in self.stabilizer.engine.predicate_keys():
            self.stabilizer.change_predicate(key, source)
        else:
            self.stabilizer.register_predicate(key, source)

    # ------------------------------------------------------------------ delivery
    def _on_remote_message(self, origin: str, seq: int, payload, meta) -> None:
        if not (isinstance(meta, tuple) and len(meta) == 3 and meta[0] == "pubsub"):
            return  # some other application shares this Stabilizer stream
        _tag, topic, user_meta = meta
        self.delivered += 1
        if self.persistent:
            self._persist(origin, seq, payload)
        for subscription in list(self._subscriptions.get(topic, ())):
            subscription.callback(origin, seq, payload, user_meta)

    @staticmethod
    def _check_topic(topic: str) -> None:
        if not topic or not isinstance(topic, str):
            raise PubSubError("topic must be a non-empty string")
        if ":" in topic:
            raise PubSubError("topic names must not contain ':'")

    def _persist(self, origin: str, seq: int, payload: Payload) -> None:
        record = f"{origin}:{seq}:{payload_length(payload)}".encode()
        self.log.append(record)
        self.persisted += 1
        self.stabilizer.report_stability("persisted", seq, origin=origin)
