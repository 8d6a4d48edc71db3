"""Tests for the pub/sub extensions: multiple topics and persistence.

The paper's prototype "currently lacks" both but notes they "would be
easy to introduce" (Section V-B) — these tests cover our introduction.
"""

import pytest

from repro.core import StabilizerCluster, StabilizerConfig
from repro.errors import PubSubError
from repro.net import NetemSpec, Topology
from repro.pubsub import StabilizerBroker
from repro.pubsub.broker import reliable_key
from repro.sim import Simulator

NODES = ["pub", "east", "west"]


def build(persistent=False):
    topo = Topology()
    for name in NODES:
        topo.add_node(name, group=name)
    topo.set_default(NetemSpec(latency_ms=10, rate_mbit=200))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        NODES,
        {name: [name] for name in NODES},
        "pub",
        control_interval_s=0.001,
        control_batch=4,
    )
    cluster = StabilizerCluster(net, config)
    brokers = {
        name: StabilizerBroker(cluster[name], persistent=persistent)
        for name in NODES
    }
    return sim, net, brokers


def test_topics_isolate_subscribers():
    sim, net, brokers = build()
    sports, news = [], []
    brokers["east"].subscribe(lambda o, s, p, m: sports.append(p), topic="sports")
    brokers["east"].subscribe(lambda o, s, p, m: news.append(p), topic="news")
    sim.run(until=0.5)
    brokers["pub"].publish(b"goal!", topic="sports")
    brokers["pub"].publish(b"election", topic="news")
    brokers["pub"].publish(b"ignored", topic="weather")
    sim.run(until=1.5)
    assert sports == [b"goal!"]
    assert news == [b"election"]


def test_topics_tracked_per_site():
    sim, net, brokers = build()
    brokers["east"].subscribe(lambda *a: None, topic="sports")
    brokers["west"].subscribe(lambda *a: None, topic="news")
    sim.run(until=0.5)
    pub = brokers["pub"]
    assert pub.active_sites("sports") == {"east"}
    assert pub.active_sites("news") == {"west"}
    assert pub.active_sites("weather") == set()


def test_reliable_waits_only_for_topic_subscribers():
    sim, net, brokers = build()
    brokers["east"].subscribe(lambda *a: None, topic="sports")
    sim.run(until=0.5)
    pub = brokers["pub"]
    # news has no subscribers anywhere: reliable immediately.
    _seq, event = pub.publish_reliable(b"n", topic="news")
    assert event.triggered
    # sports must reach east.
    start = sim.now
    _seq, event = pub.publish_reliable(b"s", topic="sports")
    assert not event.triggered
    sim.run_until_triggered(event, limit=2.0)
    assert sim.now - start > 0.015  # at least the one-way latency


def test_per_topic_predicate_keys():
    sim, net, brokers = build()
    pub = brokers["pub"]
    pub.publish_reliable(b"x", topic="sports")
    keys = pub.stabilizer.engine.predicate_keys()
    assert reliable_key("sports") == "reliable:sports" in keys
    assert reliable_key("default") == "reliable"


def test_invalid_topic_rejected():
    sim, net, brokers = build()
    with pytest.raises(PubSubError):
        brokers["pub"].publish(b"x", topic="")
    with pytest.raises(PubSubError):
        brokers["pub"].subscribe(lambda *a: None, topic="a:b")


def test_double_unsubscribe_rejected():
    sim, net, brokers = build()
    sub = brokers["east"].subscribe(lambda *a: None)
    sub.unsubscribe()
    sub.active = True  # force a second removal attempt
    with pytest.raises(PubSubError):
        sub.unsubscribe()


def test_persistent_broker_logs_and_reports_persisted():
    sim, net, brokers = build(persistent=True)
    brokers["east"].subscribe(lambda *a: None, topic="default")
    brokers["west"].subscribe(lambda *a: None, topic="default")
    sim.run(until=0.5)
    pub = brokers["pub"]
    seq, event = pub.publish_reliable(b"durable")
    sim.run_until_triggered(event, limit=2.0)
    for site in ("east", "west"):
        assert brokers[site].persisted == 1
        assert len(brokers[site].log) == 1
    # The reliable predicate demanded the persisted level.
    source = pub.stabilizer.engine.predicate(reliable_key("default")).source
    assert ".persisted" in source


def test_persistence_gates_reliability_behind_persist_delay():
    """A slow persistence path must delay reliable, not received."""
    sim, net, brokers = build(persistent=True)
    east = brokers["east"]
    east.subscribe(lambda *a: None)
    sim.run(until=0.5)

    # Make east's persistence asynchronous: defer the report by 100 ms.
    original = east._persist
    def slow_persist(origin, seq, payload):
        east.log.append(b"deferred")
        sim.call_later(
            0.1,
            lambda: east.stabilizer.report_stability("persisted", seq, origin=origin),
        )
    east._persist = slow_persist

    pub = brokers["pub"]
    start = sim.now
    _seq, event = pub.publish_reliable(b"slow durable")
    sim.run_until_triggered(event, limit=2.0)
    assert sim.now - start > 0.1  # reliability waited for persistence
