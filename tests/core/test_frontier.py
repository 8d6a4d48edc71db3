"""Unit tests for the frontier engine (registry, monitors, waiters)."""

import pytest

from repro.core.acks import AckTable
from repro.core.frontier import FrontierEngine
from repro.dsl.semantics import DslContext
from repro.errors import PredicateNotFound, StabilizerError

NODES = ["a", "b", "c", "d"]
GROUPS = {"east": ["a", "b"], "west": ["c", "d"]}


def engine(local="a"):
    """A bare engine over one zeroed table per origin.  ``local`` is "a",
    and the local origin is always observed — so the tests below, which
    all drive origin "a" (and "b" once, read back through ``frontier``),
    exercise the eager path; ``test_frontier_demand.py`` covers the rest."""
    tables = {name: AckTable(4, 2) for name in NODES}
    return FrontierEngine(DslContext(NODES, GROUPS, local), tables)


def ignore(origin, frontier, old):
    """An explicit no-op monitor: the counter tests below assert on the
    eager path's evaluation/skip counters, and a slot is only evaluated
    eagerly while somebody observes it."""


def test_register_and_frontier_starts_at_zero():
    eng = engine()
    eng.register_predicate("all", "MIN($ALLWNODES)")
    assert eng.frontier("a", "all") == 0


def test_duplicate_registration_rejected():
    eng = engine()
    eng.register_predicate("all", "MIN($ALLWNODES)")
    with pytest.raises(StabilizerError, match="already registered"):
        eng.register_predicate("all", "MAX($ALLWNODES)")


def test_unknown_key_rejected():
    eng = engine()
    with pytest.raises(PredicateNotFound):
        eng.predicate("nope")
    with pytest.raises(PredicateNotFound):
        eng.change_predicate("nope")


def test_first_registered_becomes_active():
    eng = engine()
    eng.register_predicate("one", "MAX($ALLWNODES)")
    eng.register_predicate("two", "MIN($ALLWNODES)")
    assert eng.active_key == "one"
    eng.change_predicate("two")
    assert eng.active_key == "two"


def test_reevaluate_advances_frontier_and_fires_monitor():
    eng = engine()
    eng.register_predicate("any", "MAX($ALLWNODES - $MYWNODE)")
    events = []
    eng.monitor_stability_frontier("any", lambda o, new, old: events.append((o, new, old)))
    t = eng.tables["a"]
    t.update(1, 0, 7)
    eng.reevaluate("a", updated_node=1, updated_cells=((0, 7),))
    assert eng.frontier("a", "any") == 7
    assert events == [("a", 7, 0)]


def test_reevaluate_skips_independent_predicates():
    eng = engine()
    eng.register_predicate("west_only", "MAX($AZ_west)")
    eng.monitor_stability_frontier("west_only", ignore)
    t = eng.tables["a"]
    t.update(1, 0, 9)  # node b: not read by the predicate
    before = eng.evaluations
    eng.reevaluate("a", updated_node=1, updated_cells=((0, 9),))
    assert eng.evaluations == before
    assert eng.frontier("a", "west_only") == 0


def test_monitor_not_fired_when_value_unchanged():
    eng = engine()
    eng.register_predicate("all", "MIN($ALLWNODES)")
    fired = []
    eng.monitor_stability_frontier("all", lambda *a: fired.append(a))
    t = eng.tables["a"]
    t.update(0, 0, 5)  # MIN still 0: three other nodes at 0
    eng.reevaluate("a")
    assert fired == []


def test_waiter_released_when_frontier_reaches_target():
    eng = engine()
    eng.register_predicate("any", "MAX($ALLWNODES)")
    released = []
    eng.add_waiter("a", 5, lambda: released.append("hit"), key="any")
    t = eng.tables["a"]
    t.update(2, 0, 4)
    eng.reevaluate("a")
    assert released == []
    t.update(2, 0, 6)
    eng.reevaluate("a")
    assert released == ["hit"]
    assert eng.pending_waiters() == 0


def test_waiter_fires_immediately_if_already_satisfied():
    eng = engine()
    eng.register_predicate("any", "MAX($ALLWNODES)")
    t = eng.tables["a"]
    t.update(1, 0, 10)
    eng.reevaluate("a")
    released = []
    eng.add_waiter("a", 5, lambda: released.append("now"), key="any")
    assert released == ["now"]


def test_waiter_uses_active_key_by_default():
    eng = engine()
    eng.register_predicate("weak", "MAX($ALLWNODES)")
    eng.register_predicate("strong", "MIN($ALLWNODES)")
    released = []
    eng.add_waiter("a", 3, lambda: released.append("weak"))
    t = eng.tables["a"]
    t.update(0, 0, 3)
    eng.reevaluate("a")  # MAX reaches 3, MIN does not
    assert released == ["weak"]


def test_no_predicates_no_default_key():
    eng = engine()
    with pytest.raises(PredicateNotFound):
        eng.add_waiter("a", 1, lambda: None)
    with pytest.raises(PredicateNotFound):
        eng.frontier("a")


def test_change_predicate_redefinition_holds_reports_through_gap():
    """The paper's gap semantics: after switching to a stricter
    predicate the frontier may be lower; monitors stay silent until the
    new predicate exceeds the highest previously-reported value."""
    eng = engine()
    eng.register_predicate("p", "MAX($ALLWNODES - $MYWNODE)")
    reports = []
    eng.monitor_stability_frontier("p", lambda o, new, old: reports.append(new))
    t = eng.tables["a"]
    t.update(1, 0, 10)
    eng.reevaluate("a")
    assert reports == [10]
    # Redefine to the strict form; only node b has acked, so value drops.
    eng.change_predicate("p", "MIN($ALLWNODES - $MYWNODE)")
    eng.reevaluate("a")
    assert eng.frontier("a", "p") == 0
    assert reports == [10]  # no backwards report
    for node in (1, 2, 3):
        t.update(node, 0, 12)
    eng.reevaluate("a")
    assert reports == [10, 12]


def test_duplicate_seq_waiters_all_release_in_insertion_order():
    eng = engine()
    eng.register_predicate("any", "MAX($ALLWNODES)")
    released = []
    eng.add_waiter("a", 5, lambda: released.append("first"), key="any")
    eng.add_waiter("a", 5, lambda: released.append("second"), key="any")
    eng.add_waiter("a", 5, lambda: released.append("third"), key="any")
    t = eng.tables["a"]
    t.update(1, 0, 5)
    eng.reevaluate("a", updated_node=1, updated_cells=((0, 5),))
    assert released == ["first", "second", "third"]
    assert eng.pending_waiters() == 0


def test_waiter_heap_releases_only_satisfied_seqs():
    eng = engine()
    eng.register_predicate("any", "MAX($ALLWNODES)")
    released = []
    # Insert out of order: the heap must release by seq, not insertion.
    for seq in (9, 3, 7, 1, 5):
        eng.add_waiter("a", seq, lambda s=seq: released.append(s), key="any")
    t = eng.tables["a"]
    t.update(2, 0, 6)
    eng.reevaluate("a", updated_node=2, updated_cells=((0, 6),))
    assert released == [1, 3, 5]
    assert eng.pending_waiters() == 2
    t.update(2, 0, 20)
    eng.reevaluate("a", updated_node=2, updated_cells=((0, 20),))
    assert released == [1, 3, 5, 7, 9]


def test_waiters_survive_frontier_regression_after_redefinition():
    eng = engine()
    eng.register_predicate("p", "MAX($ALLWNODES - $MYWNODE)")
    released = []
    eng.add_waiter("a", 10, lambda: released.append("hit"), key="p")
    t = eng.tables["a"]
    t.update(1, 0, 5)
    eng.reevaluate("a", updated_node=1, updated_cells=((0, 5),))
    assert released == []
    # Stricter redefinition regresses the frontier; the waiter must not
    # be dropped or spuriously fired while the gap lasts.
    eng.change_predicate("p", "MIN($ALLWNODES - $MYWNODE)")
    eng.reevaluate("a")
    assert eng.frontier("a", "p") == 0
    assert released == []
    assert eng.pending_waiters() == 1
    for node in (1, 2, 3):
        t.update(node, 0, 12)
    eng.reevaluate("a")
    assert released == ["hit"]
    assert eng.pending_waiters() == 0


def test_waiter_at_exact_current_frontier_fires_synchronously():
    eng = engine()
    eng.register_predicate("any", "MAX($ALLWNODES)")
    t = eng.tables["a"]
    t.update(1, 0, 7)
    eng.reevaluate("a", updated_node=1, updated_cells=((0, 7),))
    released = []
    eng.add_waiter("a", 7, lambda: released.append("exact"), key="any")
    assert released == ["exact"]
    assert eng.pending_waiters() == 0


def test_skip_counters_track_index_and_shortcircuit():
    eng = engine()
    eng.register_predicate("west_only", "MAX($AZ_west)")
    eng.register_predicate("east_min", "MIN($AZ_east)")
    for key in ("west_only", "east_min"):
        eng.monitor_stability_frontier(key, ignore)
    t = eng.tables["a"]
    # Baseline pass (what Stabilizer does at registration).
    eng.reevaluate("a")
    evals = eng.evaluations
    t.update(1, 0, 9)  # node b: read only by east_min
    eng.reevaluate("a", updated_node=1, updated_cells=((0, 9),))
    assert eng.skipped_by_index == 1  # west_only never touched
    assert eng.evaluations == evals + 1  # east_min re-evaluated (witness hit)
    t.update(1, 0, 12)  # b is no longer the east bottleneck (a still at 0)
    eng.reevaluate("a", updated_node=1, updated_cells=((0, 12),))
    assert eng.skipped_by_shortcircuit == 1
    assert eng.evaluations == evals + 1  # witness miss: no evaluation


def test_max_fast_advance_skips_evaluation_but_advances():
    eng = engine()
    eng.register_predicate("any", "MAX($ALLWNODES)")
    eng.monitor_stability_frontier("any", ignore)
    t = eng.tables["a"]
    eng.reevaluate("a")
    evals = eng.evaluations
    t.update(2, 0, 4)
    advanced = eng.reevaluate("a", updated_node=2, updated_cells=((0, 4),))
    assert advanced == {"any": 4}
    assert eng.frontier("a", "any") == 4
    assert eng.evaluations == evals  # direct advance, no full evaluation
    assert eng.fast_advances == 1


def test_frontiers_are_per_origin():
    eng = engine()
    eng.register_predicate("any", "MAX($ALLWNODES)")
    eng.tables["a"].update(0, 0, 4)
    eng.reevaluate("a")
    eng.reevaluate("b")
    assert eng.frontier("a", "any") == 4
    assert eng.frontier("b", "any") == 0


def test_snapshot_restore_frontiers():
    eng = engine()
    eng.register_predicate("any", "MAX($ALLWNODES)")
    t = eng.tables["a"]
    t.update(1, 0, 8)
    eng.reevaluate("a")
    snap = eng.snapshot_frontiers()
    other = engine()
    other.register_predicate("any", "MAX($ALLWNODES)")
    other.restore_frontiers(snap)
    assert other.frontier("a", "any") == 8


def test_redefinition_is_read_before_any_full_pass():
    """``change_predicate`` forgets the slot's witness: the outgoing
    definition's bottleneck says nothing about the new one, so the first
    report after it evaluates the new definition in full — even one that
    moves a cell outside the old witness."""
    eng = engine()
    eng.register_predicate("p", "MIN($ALLWNODES)")
    t = eng.tables["a"]
    for node, seq in ((0, 5), (1, 5), (2, 5), (3, 1)):
        t.update(node, 0, seq)
    eng.reevaluate("a")
    assert eng.frontier("a", "p") == 1  # the witness is d's cell alone
    eng.change_predicate("p", "MIN($AZ_east)")  # no full pass follows
    t.update(1, 0, 7)  # b: outside the old witness
    assert eng.reevaluate("a", updated_node=1, updated_cells=((0, 7),)) == {"p": 5}
    assert eng.frontier("a", "p") == 5  # MIN(a=5, b=7), the new definition


def test_restored_frontier_is_not_trusted_by_the_next_report():
    """A restored frontier may sit above anything the table supports, so
    no short-circuit may be taken against it: the next report evaluates
    in full, though it moves a cell outside the witness."""
    eng = engine()
    eng.register_predicate("p", "MIN($ALLWNODES)")
    t = eng.tables["a"]
    for node, seq in ((0, 5), (1, 5), (2, 5), (3, 1)):
        t.update(node, 0, seq)
    eng.reevaluate("a")
    eng.restore_frontiers({"a": {"p": 10}})
    assert eng.frontier("a", "p") == 10
    evaluations = eng.evaluations
    t.update(1, 0, 7)  # b: outside the witness
    eng.reevaluate("a", updated_node=1, updated_cells=((0, 7),))
    assert eng.evaluations == evaluations + 1
    assert eng.frontier("a", "p") == 1  # what the table supports
