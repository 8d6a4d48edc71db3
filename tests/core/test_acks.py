"""Unit and property tests for the monotonic ACK table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acks import AckTable
from repro.errors import StabilizerError


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


@pytest.mark.parametrize(
    "batch",
    [
        lambda t: t.update_many(2, {0: 1}),  # node out of range
        lambda t: t.update_many(-1, {0: 1}),
        lambda t: t.update_many(0, {2: 1}),  # type out of range
        lambda t: t.update_many(0, {-1: 1}),  # must not wrap to the last column
        lambda t: t.update_many(0, {0: -1}),  # negative sequence
        lambda t: t.set_all_types(2, 1),
        lambda t: t.set_all_types(-1, 1),
        lambda t: t.set_all_types(0, -1),
    ],
)
def test_batch_updates_keep_the_range_checks(batch):
    """update_many / set_all_types check once per call instead of once per
    cell through update(); what they reject is unchanged."""
    table = AckTable(2, 2)
    with pytest.raises(StabilizerError):
        batch(table)
    assert table.snapshot() == [[0, 0], [0, 0]]


def test_update_many_returns_advanced_types():
    table = AckTable(1, 3)
    table.update(0, 1, 10)
    advanced = table.update_many(0, {0: 5, 1: 7, 2: 0})
    assert advanced == [(0, 5)]  # type 1 was stale-r, type 2 is zero
    assert table.row(0) == (5, 10, 0)


def test_set_all_types():
    table = AckTable(2, 3)
    table.update(0, 1, 20)
    assert table.set_all_types(0, 15) == [0, 2]
    assert table.row(0) == (15, 20, 15)
    assert table.set_all_types(0, 10) == []


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
