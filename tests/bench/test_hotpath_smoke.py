"""Tiny-configuration smoke runs of the hot-path benchmark harness.

These live under ``tests/`` so the tier-1 command exercises the harness
itself on every PR — a broken ``run_hotpath_frontier`` or
``run_dsl_microbench`` fails here long before anyone runs the full
benchmarks.  ``make bench-smoke`` selects just these via the
``bench_smoke`` marker.  The last two are cost gates, not smoke runs:
the Python calls one WAL record and one timer event cost, held to a
budget.
"""

import pytest

from repro.bench.runners import (
    kernel_calls_per_event,
    run_dsl_microbench,
    run_hotpath_frontier,
    wal_calls_per_record,
)

pytestmark = pytest.mark.bench_smoke

# Budgets for the two per-operation paths every workload pays, in Python
# calls (``count_calls``: exact, no wall clock), pinned about 10 % above
# what the code costs today — 25.5 per record (57.4 before the append path
# was shortened) and 6.0 per event (9.0 before the handle became the heap
# entry).  A change that puts a layer back on either path fails here;
# raise a budget only with the reason in the commit.
WAL_CALLS_PER_RECORD_BUDGET = 28.0
KERNEL_CALLS_PER_EVENT_BUDGET = 6.6


def test_hotpath_frontier_smoke():
    rows = run_hotpath_frontier(
        predicate_counts=(4, 16), node_counts=(2, 8), reports=300
    )
    assert len(rows) == 4
    for row in rows:
        # Correctness always; speed assertions belong to the full bench.
        assert row["frontiers_match"]
        assert row["incremental_rps"] > 0
        assert row["brute_rps"] > 0
        assert row["evaluations"] <= row["brute_evaluations"]
    # The incremental machinery must actually engage, even at this scale.
    assert any(row["skipped_by_index"] > 0 for row in rows)
    assert any(row["skipped_by_shortcircuit"] > 0 for row in rows)


def test_dsl_microbench_smoke():
    rows = run_dsl_microbench(
        operator_counts=(1, 2), operand_counts=(5,), evaluations=100
    )
    assert len(rows) == 2
    for row in rows:
        assert row["compile_ms"] > 0
        assert row["eval_us"] > 0


def test_wal_record_stays_within_its_call_budget():
    calls = wal_calls_per_record(records=1_000, batch=8)
    assert calls <= WAL_CALLS_PER_RECORD_BUDGET
    assert calls == wal_calls_per_record(records=1_000, batch=8)  # exact


def test_timer_event_stays_within_its_call_budget():
    calls = kernel_calls_per_event(events=1_000)
    assert calls <= KERNEL_CALLS_PER_EVENT_BUDGET
    assert calls == kernel_calls_per_event(events=1_000)  # exact
