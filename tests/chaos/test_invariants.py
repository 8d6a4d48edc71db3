"""The invariant checker must actually catch broken safety properties.

These tests drive the checker with minimal fakes so each failure mode is
exercised directly — a checker that never fires is worse than none.
"""

import pytest

from repro.chaos import InvariantChecker, InvariantViolation


class FakeEngine:
    def __init__(self, keys):
        self._keys = keys

    def predicate_keys(self):
        return list(self._keys)


class FakeTable:
    def __init__(self, rows):
        self.rows = rows

    def snapshot(self):
        return [list(row) for row in self.rows]


class FakeNode:
    def __init__(self, name, keys=("all",), tables=None):
        self.name = name
        self.engine = FakeEngine(keys)
        self.monitors = {}
        self.tables = tables or {}

    def monitor_stability_frontier(self, key, callback):
        self.monitors[key] = callback

    def stacks(self):
        return {None: self}


def test_monitor_monotonicity_violation_detected():
    checker = InvariantChecker()
    node = FakeNode("a")
    checker.attach(node)
    observe = node.monitors["all"]
    checker.note_sent("b", 10)
    observe("b", 5, 0)
    observe("b", 7, 5)
    with pytest.raises(InvariantViolation, match="monitor regression"):
        observe("b", 6, 7)
    assert checker.violations  # recorded for the report as well


def test_monitor_history_survives_reattach():
    # A restarted node gets a fresh attach(); history is keyed by name, so
    # the new incarnation is held to the old one's reports.
    checker = InvariantChecker()
    checker.note_sent("b", 10)
    node = FakeNode("a")
    checker.attach(node)
    node.monitors["all"]("b", 8, 0)
    reborn = FakeNode("a")
    checker.attach(reborn)
    with pytest.raises(InvariantViolation, match="monitor regression"):
        reborn.monitors["all"]("b", 3, 0)


def test_phantom_stability_detected():
    checker = InvariantChecker()
    node = FakeNode("a")
    checker.attach(node)
    checker.note_sent("b", 4)
    with pytest.raises(InvariantViolation, match="phantom stability"):
        node.monitors["all"]("b", 5, 0)  # beyond anything b ever sent


def test_ack_cell_regression_detected():
    checker = InvariantChecker()
    node = FakeNode("a", tables={"b": FakeTable([[3, 4], [5, 6]])})
    checker.check_tables([node])
    node.tables["b"].rows[1][0] = 2  # a cell goes backwards
    with pytest.raises(InvariantViolation, match="ACK regression"):
        checker.check_tables([node])


def test_forget_node_reseeds_table_history():
    checker = InvariantChecker()
    node = FakeNode("a", tables={"b": FakeTable([[3]])})
    checker.check_tables([node])
    checker.forget_node("a")
    node.tables["b"].rows[0][0] = 1  # allowed: history was dropped
    checker.check_tables([node])


def test_lost_message_detected_at_quiescence():
    class FakeDataPlane:
        def highest_received(self, origin):
            return 2

    checker = InvariantChecker()
    checker.note_sent("b", 5)
    node = FakeNode("a")
    node.dataplane = FakeDataPlane()
    assert not checker.all_delivered([node])
    with pytest.raises(InvariantViolation, match="lost messages"):
        checker.check_delivery([node])


def test_clean_run_counts_checks_without_violations():
    checker = InvariantChecker()
    node = FakeNode("a", tables={"b": FakeTable([[1, 2]])})
    checker.attach(node)
    checker.note_sent("b", 9)
    node.monitors["all"]("b", 3, 0)
    node.monitors["all"]("b", 9, 3)
    checker.check_tables([node])
    checker.check_tables([node])
    assert checker.monitor_events == 2
    assert checker.checks > 0
    assert checker.violations == []


# ---------------------------------------------------------------------------
# Invariant 8: no reclaim before global delivery.
# ---------------------------------------------------------------------------


class FakeBuffer:
    def __init__(self, reclaimed_up_to):
        self.reclaimed_up_to = reclaimed_up_to


class FakePipelineDataPlane:
    def __init__(self, reclaimed_up_to=0, received=None):
        self.buffer = FakeBuffer(reclaimed_up_to)
        self._received = received or {}

    def highest_received(self, origin):
        return self._received.get(origin, 0)


def test_premature_reclaim_detected():
    checker = InvariantChecker()
    a = FakeNode("a")
    a.dataplane = FakePipelineDataPlane(reclaimed_up_to=10)
    b = FakeNode("b")
    b.dataplane = FakePipelineDataPlane(received={"a": 5})
    with pytest.raises(InvariantViolation, match="premature reclaim"):
        checker.check_reclaim([a, b])


def test_reclaim_at_global_delivery_passes():
    checker = InvariantChecker()
    a = FakeNode("a")
    a.dataplane = FakePipelineDataPlane(reclaimed_up_to=5)
    b = FakeNode("b")
    b.dataplane = FakePipelineDataPlane(received={"a": 5})
    checker.check_reclaim([a, b])
    assert checker.violations == []
