"""Tests for edge admission: token buckets, breakers, queues, wiring."""

import pytest

from repro.core import StabilizerCluster, StabilizerConfig
from repro.core.admission import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AdmissionController,
    CircuitBreaker,
    TokenBucket,
)
from repro.errors import AdmissionError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.testing import SyntheticPayload


def build(nodes=("a", "b"), latency_ms=5, **config_kwargs):
    topo = Topology()
    for i, name in enumerate(nodes):
        topo.add_node(name, f"az{i}")
    topo.set_default(NetemSpec(latency_ms=latency_ms, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig.from_topology(
        topo,
        nodes[0],
        predicates={"all": "MIN($ALLWNODES - $MYWNODE)"},
        control_interval_s=0.005,
        **config_kwargs,
    )
    return sim, net, StabilizerCluster(net, config)


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------


def test_token_bucket_refills_continuously():
    now = [0.0]
    bucket = TokenBucket(lambda: now[0], rate_per_s=10.0, burst=5.0)
    for _ in range(5):
        assert bucket.take()
    assert not bucket.take()
    now[0] = 0.25  # 2.5 tokens accrued
    assert bucket.take()
    assert bucket.take()
    assert not bucket.take()


def test_token_bucket_burst_caps_refill_and_refund():
    now = [0.0]
    bucket = TokenBucket(lambda: now[0], rate_per_s=100.0, burst=3.0)
    now[0] = 10.0
    assert bucket.tokens == 3.0
    bucket.refund(5.0)
    assert bucket.tokens == 3.0


def test_token_bucket_set_rate_settles_old_rate_first():
    now = [0.0]
    bucket = TokenBucket(lambda: now[0], rate_per_s=10.0, burst=10.0)
    for _ in range(10):
        bucket.take()
    now[0] = 0.5  # 5 tokens at the old rate
    bucket.set_rate(1000.0)
    assert bucket.tokens == pytest.approx(5.0)


def test_token_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(lambda: 0.0, rate_per_s=0, burst=1)
    with pytest.raises(ValueError):
        TokenBucket(lambda: 0.0, rate_per_s=1, burst=0)


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


def test_breaker_threshold_then_halfopen_then_close():
    now = [0.0]
    breaker = CircuitBreaker(
        lambda: now[0], failure_threshold=3, cooldown_s=1.0
    )
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allow()
    now[0] = 1.0  # cooldown elapsed: lazily half-open
    assert breaker.state == BREAKER_HALF_OPEN
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED
    assert breaker.trips == 1 and breaker.closes == 1 and breaker.probes == 1


def test_breaker_halfopen_failure_reopens():
    now = [0.0]
    breaker = CircuitBreaker(
        lambda: now[0], failure_threshold=1, cooldown_s=1.0
    )
    breaker.record_failure()
    now[0] = 1.0
    assert breaker.state == BREAKER_HALF_OPEN
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    assert breaker.trips == 2
    now[0] = 1.5  # the reopen restarted the cooldown
    assert breaker.state == BREAKER_OPEN


def test_breaker_success_resets_consecutive_failures():
    breaker = CircuitBreaker(lambda: 0.0, failure_threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED


def test_breaker_trip_is_immediate_and_extends_cooldown():
    now = [0.0]
    breaker = CircuitBreaker(lambda: now[0], cooldown_s=1.0)
    breaker.trip()
    assert breaker.state == BREAKER_OPEN
    now[0] = 0.9
    breaker.trip()  # dead-peer report mid-cooldown: extend, not re-trip
    assert breaker.trips == 1
    now[0] = 1.5  # 0.9 + 1.0 not yet elapsed
    assert breaker.state == BREAKER_OPEN
    now[0] = 1.95
    assert breaker.state == BREAKER_HALF_OPEN


# ---------------------------------------------------------------------------
# AdmissionController: rate, queue, shed policies
# ---------------------------------------------------------------------------


def test_submit_within_rate_sends_immediately():
    sim, net, cluster = build()
    node = cluster["a"]
    controller = node.set_admission(rate_per_s=100.0)
    outcome = controller.submit(SyntheticPayload(128))
    assert outcome.status == "sent" and outcome.seq == 1
    stats = controller.stats()
    assert stats["admission.offered"] == 1
    assert stats["admission.admitted"] == 1
    cluster.close()


def test_submit_above_rate_queues_then_pump_drains():
    sim, net, cluster = build()
    node = cluster["a"]
    controller = node.set_admission(rate_per_s=10.0, burst=1.0)
    assert controller.submit(SyntheticPayload(64)).status == "sent"
    assert controller.submit(SyntheticPayload(64)).status == "queued"
    assert controller.queue_depth() == 1
    sim.run(until=0.5)  # pump drains at the token rate
    assert controller.queue_depth() == 0
    assert controller.stats()["admission.admitted"] == 2
    cluster.close()


def test_reject_new_sheds_newcomer_when_queue_full():
    sim, net, cluster = build()
    node = cluster["a"]
    controller = node.set_admission(
        rate_per_s=1.0, burst=1.0, queue_limit=2, shed_policy="reject_new"
    )
    controller.submit(SyntheticPayload(64))  # sent
    controller.submit(SyntheticPayload(64))  # queued
    controller.submit(SyntheticPayload(64))  # queued
    outcome = controller.submit(SyntheticPayload(64))
    assert outcome.status == "shed" and outcome.reason == "queue_full"
    stats = controller.stats()
    assert stats["admission.shed_queue_full"] == 1
    assert stats["admission.queue_depth"] == 2
    cluster.close()


def test_drop_oldest_sheds_queued_never_admitted():
    sim, net, cluster = build()
    node = cluster["a"]
    controller = node.set_admission(
        rate_per_s=1.0, burst=1.0, queue_limit=1, shed_policy="drop_oldest"
    )
    controller.submit(SyntheticPayload(64))  # sent
    controller.submit(SyntheticPayload(64))  # queued
    outcome = controller.submit(SyntheticPayload(64))
    assert outcome.status == "queued"  # the newcomer got the slot
    stats = controller.stats()
    assert stats["admission.shed_drop_oldest"] == 1
    assert stats["admission.admitted_shed"] == 0
    cluster.close()


def test_accounting_is_conserved():
    sim, net, cluster = build()
    node = cluster["a"]
    controller = node.set_admission(
        rate_per_s=5.0, burst=2.0, queue_limit=3, shed_policy="reject_new"
    )
    for _ in range(20):
        controller.submit(SyntheticPayload(64))
    stats = controller.stats()
    assert stats["admission.offered"] == 20
    assert stats["admission.offered"] == (
        stats["admission.admitted"]
        + stats["admission.shed"]
        + stats["admission.queue_depth"]
    )
    assert stats["admission.admitted_shed"] == 0
    cluster.close()


def test_invalid_arguments():
    sim, net, cluster = build()
    node = cluster["a"]
    with pytest.raises(ValueError, match="shed_policy"):
        AdmissionController(node, rate_per_s=1.0, shed_policy="tailgate")
    with pytest.raises(ValueError, match="queue_limit"):
        AdmissionController(node, rate_per_s=1.0, queue_limit=0)
    cluster.close()


# ---------------------------------------------------------------------------
# Direct sends: the preflight gate
# ---------------------------------------------------------------------------


def test_direct_send_above_rate_raises_admission_error():
    sim, net, cluster = build()
    node = cluster["a"]
    node.set_admission(rate_per_s=10.0, burst=2.0)
    node.send(SyntheticPayload(64))
    node.send(SyntheticPayload(64))
    with pytest.raises(AdmissionError) as exc:
        node.send(SyntheticPayload(64))
    assert exc.value.reason == "rate"
    stats = node.stats()
    assert stats["admission.direct_refused"] == 1
    assert stats["admission.direct_admitted"] == 2
    cluster.close()


def test_direct_send_passes_once_tokens_refill():
    sim, net, cluster = build()
    node = cluster["a"]
    node.set_admission(rate_per_s=10.0, burst=1.0)
    node.send(SyntheticPayload(64))
    with pytest.raises(AdmissionError):
        node.send(SyntheticPayload(64))
    sim.run(until=0.2)
    assert node.send(SyntheticPayload(64)) > 0
    cluster.close()


# ---------------------------------------------------------------------------
# Breakers fed by transport distress
# ---------------------------------------------------------------------------


def test_dead_peer_report_trips_breaker_and_gate():
    sim, net, cluster = build(
        nodes=("a", "b"),
        max_retransmit_attempts=2,
        transport_max_rto_s=0.2,
        failure_timeout_s=30.0,  # only the transport path may suspect
    )
    node = cluster["a"]
    controller = node.set_admission(
        rate_per_s=1000.0, breaker_cooldown_s=5.0
    )
    node.send(SyntheticPayload(256))
    sim.run(until=0.2)
    net.crash_node("b")
    node.send(SyntheticPayload(256))  # traffic toward the dead peer
    sim.run(until=3.0)
    assert controller.open_breakers() == ["b"]
    assert not controller.gate_open()
    outcome = controller.submit(SyntheticPayload(64))
    assert outcome.status == "shed" and outcome.reason == "breaker"
    with pytest.raises(AdmissionError) as exc:
        node.send(SyntheticPayload(64))
    assert exc.value.reason == "breaker"
    cluster.close()


def test_breaker_cooldown_reopens_gate():
    sim, net, cluster = build()
    node = cluster["a"]
    controller = node.set_admission(rate_per_s=1000.0, breaker_cooldown_s=0.5)
    controller._breaker(("b", None)).trip()
    assert not controller.gate_open()
    outcome = controller.submit(SyntheticPayload(64))
    assert outcome.status == "shed" and outcome.reason == "breaker"
    sim.run(until=1.0)  # cooldown elapses; healthy polls probe and close
    assert controller.open_breakers() == []
    assert controller.gate_open()
    assert controller.submit(SyntheticPayload(64)).status == "sent"
    cluster.close()


def test_dead_peer_chain_preserves_degradation_path():
    """The controller subscribes beside (not instead of) an earlier
    dead-peer subscriber, and the stabilizer's own detector still sees
    the report."""
    sim, net, cluster = build(
        nodes=("a", "b"),
        max_retransmit_attempts=2,
        transport_max_rto_s=0.2,
        failure_timeout_s=30.0,
    )
    node = cluster["a"]
    seen = []
    node.on_peer_dead(lambda peer, shard: seen.append((peer, shard)))
    node.set_admission(rate_per_s=1000.0)
    node.send(SyntheticPayload(256))
    sim.run(until=0.2)
    net.crash_node("b")
    node.send(SyntheticPayload(256))
    sim.run(until=3.0)
    assert ("b", None) in seen  # the earlier subscriber still heard it
    assert "b" in node.suspected_nodes()
    cluster.close()


# ---------------------------------------------------------------------------
# Stats merge and teardown
# ---------------------------------------------------------------------------


def test_stats_merge_into_node_stats():
    sim, net, cluster = build()
    node = cluster["a"]
    node.set_admission(rate_per_s=50.0)
    node.send(SyntheticPayload(64))
    stats = node.stats()
    assert stats["admission.direct_admitted"] == 1
    assert stats["breaker.count"] == 1
    cluster.close()


def test_close_cancels_pump():
    sim, net, cluster = build()
    node = cluster["a"]
    controller = node.set_admission(rate_per_s=10.0, burst=1.0)
    controller.submit(SyntheticPayload(64))
    controller.submit(SyntheticPayload(64))  # queued
    controller.close()
    sim.run(until=2.0)
    assert controller.queue_depth() == 1  # pump never ran again
    cluster.close()
