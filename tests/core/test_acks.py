"""Unit and property tests for the monotonic ACK table, and for the
engines' write paths into it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StabilizerCluster
from repro.core.acks import AckTable
from repro.core.config import StabilizerConfig
from repro.errors import StabilizerError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.testing import MemoryFileSystem
from repro.transport.messages import ControlFrame


def test_table_starts_at_zero():
    table = AckTable(3, 2)
    assert table.row(0) == (0, 0)
    assert table.get(2, 1) == 0


def test_update_advances_and_reports():
    table = AckTable(2, 1)
    assert table.update(0, 0, 5) is True
    assert table.get(0, 0) == 5


def test_stale_update_ignored():
    table = AckTable(2, 1)
    table.update(0, 0, 5)
    assert table.update(0, 0, 3) is False
    assert table.update(0, 0, 5) is False
    assert table.get(0, 0) == 5


def test_negative_seq_rejected():
    table = AckTable(1, 1)
    with pytest.raises(StabilizerError):
        table.update(0, 0, -1)


def test_out_of_range_rejected():
    table = AckTable(2, 2)
    with pytest.raises(StabilizerError):
        table.update(2, 0, 1)
    with pytest.raises(StabilizerError):
        table.get(0, 2)
    with pytest.raises(StabilizerError):
        AckTable(0, 1)


def _stack(durability=False):
    """Node ``a`` of a two-node cluster: the ACK-table engine's write paths
    over three columns (received, persisted, verified)."""
    link = NetemSpec(latency_ms=5, rate_mbit=100)
    topo = Topology.uniform({"a": "a", "b": "b"}, link)
    config = StabilizerConfig(
        ["a", "b"],
        {"a": ["a"], "b": ["b"]},
        "a",
        ack_types=["verified"],
        durability=durability,
    )
    cluster = StabilizerCluster(
        topo.build(Simulator()),
        config,
        fs_factory=(lambda name: MemoryFileSystem()) if durability else None,
    )
    return cluster["a"]


def _report(node_index, entries, origin_index=0):
    frame = ControlFrame(node_index, origin_index, entries)
    return lambda strategy: strategy.on_control_frame("b", frame)


@pytest.mark.parametrize(
    "batch",
    [
        _report(2, {0: 1}),  # reporter out of range
        _report(-1, {0: 1}),  # must not wrap to the last row
        _report(1, {3: 1}),  # type out of range
        _report(1, {-1: 1}),  # must not wrap to the last column
        _report(1, {0: -1}),  # negative sequence
        lambda s: s.grant_local("b", 3, 1),
        lambda s: s.grant_local("b", -1, 1),
        lambda s: s.grant_local("b", 0, -1),
    ],
)
def test_batch_updates_keep_the_range_checks(batch):
    """The engines' write paths — a report applied, a local grant — write
    the live rows directly; what they reject is what ``update`` rejects."""
    node = _stack()
    with pytest.raises(StabilizerError):
        batch(node.strategy)
    assert node.tables["a"].snapshot() == [[0, 0, 0], [0, 0, 0]]
    assert node.tables["b"].snapshot() == [[0, 0, 0], [0, 0, 0]]


def test_a_report_advances_only_the_cells_that_rose():
    node = _stack()
    table = node.tables["b"]
    table.update(1, 1, 10)
    node.strategy.on_control_frame("b", ControlFrame(1, 1, {0: 5, 1: 7, 2: 0}))
    # type 1 was stale-r, type 2 is zero
    assert table.row(1) == (5, 10, 0)


def test_an_arrival_completes_the_origin_row():
    """Section III-C: the origin holds every property for what it sent —
    ``persisted`` only by its own fsyncs under durability."""
    for durability, persisted in ((False, 15), (True, 0)):
        node = _stack(durability)
        table = node.tables["b"]
        table.update(1, 2, 20)
        node.strategy.on_remote_deliver("b", 15, 15)
        assert table.row(1) == (15, persisted, 20)
        assert table.row(0) == (15, 0, 0)  # a's received grant
        node.strategy.on_remote_deliver("b", 10, 10)  # stale: nothing moves
        assert table.row(1) == (15, persisted, 20)


def test_add_type_column():
    table = AckTable(2, 1)
    table.update(0, 0, 9)
    new_id = table.add_type_column()
    assert new_id == 1
    assert table.row(0) == (9, 0)
    table.update(1, 1, 4)
    assert table.get(1, 1) == 4


def test_snapshot_is_a_copy():
    table = AckTable(1, 1)
    snap = table.snapshot()
    table.update(0, 0, 3)
    assert snap == [[0]]
    assert table.snapshot() == [[3]]


def test_restore_applies_monotonically():
    table = AckTable(2, 2)
    table.update(0, 0, 10)
    table.restore([[5, 7], [1, 2]])
    assert table.row(0) == (10, 7)  # 5 was stale, 7 advanced
    assert table.row(1) == (1, 2)


def test_restore_shape_mismatch_rejected():
    table = AckTable(2, 2)
    with pytest.raises(StabilizerError):
        table.restore([[1, 2]])
    with pytest.raises(StabilizerError):
        table.restore([[1], [2]])


def test_live_table_reflects_updates_without_copy():
    table = AckTable(2, 1)
    view = table.table
    table.update(1, 0, 8)
    assert view[1][0] == 8


@given(
    updates=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 100)),
        max_size=80,
    )
)
@settings(max_examples=50, deadline=None)
def test_cells_are_monotone_under_any_update_sequence(updates):
    """Property: applying any report sequence, each cell equals the max
    report seen for it and never decreases along the way."""
    table = AckTable(4, 2)
    best = {}
    for node, type_id, seq in updates:
        before = table.get(node, type_id)
        table.update(node, type_id, seq)
        after = table.get(node, type_id)
        assert after >= before
        best[(node, type_id)] = max(best.get((node, type_id), 0), seq)
        assert after == best[(node, type_id)]
