"""Span-tree reconstruction and critical-path attribution.

Unit tests drive :func:`build_span_trees` / :func:`analyze` over a
hand-written event sequence with known timings (so segment math is
asserted exactly), then over the real 3-node scenario (cross-node
completeness, ≥95% attribution, nested chrome export well-formedness).
"""

import json

import pytest

from repro.obs.critpath import BlameTable, analyze, analyze_trees
from repro.obs.spans import build_span_trees, chrome_span_trace


def _ev(ts, node, etype, **fields):
    return {"ts": ts, "node": node, "etype": etype, **fields}


def _one_send_events(durable=False):
    """n0 sends seq 1; n1 receives, acks, reports back; n0 stabilizes.

    Timings: enqueue 0.000, wire-out 0.002, receive 0.012 (10ms net),
    ack 0.017 (5ms deliver), report out 0.022 (5ms batching), report in
    0.032 (10ms net), advance 0.033 (1ms frontier eval).
    """
    ack_type = "persisted" if durable else "received"
    events = [
        _ev(0.000, "n0", "data.enqueue", origin="n0", seq=1, bytes=512),
        _ev(0.002, "n0", "data.frame_send", peer="n1", origin="n0",
            first_seq=1, last_seq=1, messages=1, bytes=560),
        _ev(0.012, "n1", "data.receive", origin="n0", seq=1),
    ]
    if durable:
        events.append(_ev(0.016, "n1", "wal.fsync", origin="n0", seq=1,
                          records=1))
    events += [
        _ev(0.017, "n1", "ack.local", origin="n0", type=ack_type, seq=1),
        _ev(0.022, "n1", "control.send", peer="n0", origins=1, cells=1,
            heads=[["n0", ack_type, 1]]),
        _ev(0.032, "n0", "control.receive", peer="n1", origin="n0",
            cells=1, heads=[[ack_type, 1]]),
        _ev(0.033, "n0", "frontier.advance", origin="n0", key="all",
            frontier=1, old=0),
    ]
    return events


def test_single_send_span_tree_shape_and_timings():
    trees = build_span_trees(_one_send_events())
    assert set(trees) == {("n0", None, 1)}
    trace = trees[("n0", None, 1)]
    assert trace.complete and trace.cross_node
    assert trace.stable["all"][0] == pytest.approx(0.033)
    assert trace.stable["all"][1]["kind"] == "control.receive"
    root = trace.root
    assert root.name == "send" and root.node == "n0"
    assert root.start == pytest.approx(0.0)
    assert root.end == pytest.approx(0.033)
    (replicate, stable) = root.children
    assert replicate.name == "replicate:n1"
    names = {child.name for child in replicate.children}
    assert names == {"net:data", "deliver", "ack:batch", "net:ack"}
    net = next(c for c in replicate.children if c.name == "net:data")
    assert net.end - net.start == pytest.approx(0.010)
    assert stable.name == "stable:all"


def test_fsync_child_under_durability():
    trees = build_span_trees(_one_send_events(durable=True))
    trace = trees[("n0", None, 1)]
    deliver = next(
        c for c in trace.root.children[0].children if c.name == "deliver"
    )
    assert [c.name for c in deliver.children] == ["fsync"]
    assert deliver.meta["type"] == "persisted"


def test_attribution_segments_exact():
    table = analyze(_one_send_events())
    assert table.sends == 1 and table.attributed == 1
    a = table.attributions[0]
    assert a.blamed == "n1"
    assert a.total_s == pytest.approx(0.033)
    # Both WAN hops: 10ms out + 10ms back.
    assert a.segments["network"] == pytest.approx(0.020)
    # Frame cut 2ms + deliver->ack 5ms + ack->report 5ms.
    assert a.segments["queueing"] == pytest.approx(0.012)
    assert a.segments["fsync"] == 0.0
    assert a.segments["frontier_eval"] == pytest.approx(0.001)
    assert a.dominant == "network"


def test_fsync_gated_ack_blames_fsync_segment():
    table = analyze(_one_send_events(durable=True))
    a = table.attributions[0]
    # receive->ack (5ms) moves from queueing to fsync when the ack type
    # is persisted and an fsync covers the seq.
    assert a.segments["fsync"] == pytest.approx(0.005)
    assert a.segments["queueing"] == pytest.approx(0.007)


def test_locally_satisfied_predicate_blames_origin():
    events = [
        _ev(0.000, "n0", "data.enqueue", origin="n0", seq=1, bytes=64),
        _ev(0.003, "n0", "ack.local", origin="n0", type="received", seq=1),
        _ev(0.004, "n0", "frontier.advance", origin="n0", key="mine",
            frontier=1, old=0),
    ]
    table = analyze(events)
    a = table.attributions[0]
    assert a.blamed == "n0" and a.attributed
    assert a.segments["queueing"] == pytest.approx(0.003)
    assert a.segments["frontier_eval"] == pytest.approx(0.001)


def test_stale_cause_leaves_send_unattributed():
    # The advance's nearest preceding table update is for a different
    # origin — cause must be rejected, not misattributed.
    events = [
        _ev(0.000, "n0", "data.enqueue", origin="n0", seq=1, bytes=64),
        _ev(0.010, "n0", "ack.local", origin="n9", type="received", seq=7),
        _ev(0.011, "n0", "frontier.advance", origin="n0", key="all",
            frontier=1, old=0),
    ]
    table = analyze(events)
    assert table.sends == 1 and table.attributed == 0
    assert table.attributions[0].blamed is None


def test_shard_tags_keep_sequence_spaces_apart():
    events = []
    for shard in (0, 1):
        events += [
            _ev(0.000 + shard, "n0", "data.enqueue", origin="n0", seq=1,
                bytes=64, shard=shard),
            _ev(0.003 + shard, "n0", "ack.local", origin="n0",
                type="received", seq=1, shard=shard),
            _ev(0.004 + shard, "n0", "frontier.advance", origin="n0",
                key="all", frontier=1, old=0, shard=shard),
        ]
    trees = build_span_trees(events)
    assert set(trees) == {("n0", 0, 1), ("n0", 1, 1)}
    assert analyze(events).sends == 2


def test_frame_run_covers_coalesced_sequences():
    # One frame covering seqs 1..3: every seq maps to the frame's cut,
    # not to the frames of a later replay that re-sent them.
    events = [
        _ev(0.000, "n0", "data.enqueue", origin="n0", seq=s, bytes=64)
        for s in (1, 2, 3)
    ]
    events += [
        _ev(0.005, "n0", "data.frame_send", peer="n1", origin="n0",
            first_seq=1, last_seq=3, messages=3, bytes=200),
    ] + [
        _ev(0.015, "n1", "data.receive", origin="n0", seq=s)
        for s in (1, 2, 3)
    ] + [
        _ev(0.5, "n0", "data.frame_send", peer="n1", origin="n0",
            first_seq=first, last_seq=last, messages=last - first + 1,
            bytes=100, cause="replay")
        for first, last in ((1, 2), (3, 3))
    ]
    trees = build_span_trees(events)
    for seq in (1, 2, 3):
        chain = trees[("n0", None, seq)].peers["n1"]
        assert chain["send"] == pytest.approx(0.005)
        assert chain["receive"] == pytest.approx(0.015)


def test_blame_table_format_and_metrics():
    table = analyze(_one_send_events())
    text = table.format()
    assert "1/1 sends attributed" in text
    assert "n1:1" in text and "network" in text
    metrics = table.metrics()
    assert metrics["critpath.sends"] == 1.0
    assert metrics["critpath.all.blamed.n1"] == 1.0
    assert metrics["critpath.all.share.network"] == pytest.approx(
        0.020 / 0.033, rel=0.01
    )
    empty = BlameTable()
    assert "no stabilized sends" in empty.format()
    assert empty.attribution_rate == 0.0


def test_chrome_span_export_is_wellformed_nested_async():
    trees = build_span_trees(_one_send_events())
    doc = json.loads(json.dumps(chrome_span_trace(trees)))
    events = [e for e in doc["traceEvents"] if e.get("ph") in ("b", "e")]
    assert events, "no async span events"
    # Balanced begin/end per (id, name, pid), begin before end.
    opens = {}
    for event in events:
        key = (event["id"], event["name"], event["pid"])
        if event["ph"] == "b":
            opens[key] = opens.get(key, 0) + 1
        else:
            opens[key] = opens.get(key, 0) - 1
            assert opens[key] >= 0, f"end before begin for {key}"
    assert all(count == 0 for count in opens.values())
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e.get("ph") == "M"}
    assert {"node n0", "node n1"} <= names


def test_scenario_end_to_end_attribution_rate():
    from repro.obs.scenario import run_obs_scenario

    result = run_obs_scenario(nodes=3, messages=45, seed=3, durability=True)
    events = list(result["tracer"].events())
    trees = build_span_trees(events)
    complete = [t for t in trees.values() if t.complete and t.cross_node]
    assert len(complete) >= 1
    table = BlameTable()
    for attribution in analyze_trees(trees):
        table.add(attribution)
    # The acceptance bar: ≥95% of stabilized sends attributed at 1/1
    # sampling, each naming a straggler node and dominant segment.
    assert table.sends > 0
    assert table.attribution_rate >= 0.95
    for a in table.attributions:
        if a.attributed:
            assert a.blamed is not None and a.dominant is not None
