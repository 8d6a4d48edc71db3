"""Tiny-configuration smoke runs of the hot-path benchmark harness.

These live under ``tests/`` so the tier-1 command exercises the harness
itself on every PR — a broken ``run_hotpath_frontier`` or
``run_dsl_microbench`` fails here long before anyone runs the full
benchmarks.  ``make bench-smoke`` selects just these via the
``bench_smoke`` marker.  The last seven are cost gates, not smoke runs:
the Python calls one WAL record, one timer event, one lone send, one
arrived data frame (at a receiver that observes the stream, and the
engine's share at one that does not) and one message of a frame of four
cost, held to a budget.
"""

import pytest

from repro.bench.runners import (
    frame_calls_per_message,
    kernel_calls_per_event,
    lone_send_calls_per_peer,
    run_dsl_microbench,
    run_hotpath_frontier,
    wal_calls_per_record,
)

pytestmark = pytest.mark.bench_smoke

# Budgets for the per-operation paths every workload pays, in Python
# calls (``count_calls``: exact, no wall clock), pinned about 10 % above
# what the code costs today — 25.5 per record (57.4 before the append path
# was shortened), 5.0 per event (9.0 before the handle became the heap
# entry, 6.0 while ``run`` asked ``_next_time()`` for every event) and
# 37.25 per peer of a lone 512 B send (68.75 while a frame of one went
# through the frame builder and a relay call per layer, 41.5 while the
# chunker built a ``Chunk`` per chunk and a peer's queue took it through
# a method call).  A change that puts a layer back on any of these paths
# fails here; raise a budget only with the reason in the commit.
WAL_CALLS_PER_RECORD_BUDGET = 28.0
KERNEL_CALLS_PER_EVENT_BUDGET = 5.5
LONE_SEND_CALLS_PER_PEER_BUDGET = 41.0
# An arrived data frame of one message costs a receiver that observes the
# origin's stream 48.5 calls (72.3 before the frame became the unit of
# arrival, 68.3 while every chunk of a many-chunk object went through a
# ``Chunk`` and the any-order reassembler, 58.5 while a value went through
# ``set_all_types``, ``_on_table_update`` and the other relays to the ACK
# table), 41.0 of them above the data plane: ACK table, report batcher,
# frontier engine (51.0 with the relays).  That share belongs to the
# frame, not to its messages: a message of a frame of four — 8 KB chunks,
# four to an object, the ``trace_bulk`` path — costs 13.5 (28.25 with the
# reassembler and a ``SyntheticPayload`` per part of the frame, 16.0 with
# the relays).  At a receiver that observes nothing — every receiver of
# ``wan_small`` — the engine's share is 4.0: the frontier engine is not
# called at all (18.0 while it was called to say so).
FRAME_CALLS_PER_MESSAGE_BUDGET = 54.0
FRAME_OF_FOUR_CALLS_PER_MESSAGE_BUDGET = 15.0
UNOBSERVED_FRAME_ENGINE_CALLS_BUDGET = 5.0
FRAME_ENGINE_CALLS_SLACK = 3.0


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


def test_lone_send_stays_within_its_call_budget():
    calls = lone_send_calls_per_peer(payload_bytes=512, nodes=5)
    assert calls <= LONE_SEND_CALLS_PER_PEER_BUDGET
    assert calls == lone_send_calls_per_peer(payload_bytes=512, nodes=5)  # exact


def test_arrived_frame_stays_within_its_call_budget():
    lone = frame_calls_per_message(1, frames=200)
    assert lone["calls_per_message"] <= FRAME_CALLS_PER_MESSAGE_BUDGET
    assert lone == frame_calls_per_message(1, frames=200)  # exact


def test_message_of_a_frame_of_four_stays_within_its_call_budget():
    four = frame_calls_per_message(4, frames=200)
    assert four["calls_per_message"] <= FRAME_OF_FOUR_CALLS_PER_MESSAGE_BUDGET
    assert four == frame_calls_per_message(4, frames=200)  # exact


def test_an_arrival_nobody_observes_stays_within_its_engine_budget():
    quiet = frame_calls_per_message(1, frames=200, observed=False)
    assert quiet["engine_calls_per_frame"] <= UNOBSERVED_FRAME_ENGINE_CALLS_BUDGET
    assert quiet == frame_calls_per_message(1, frames=200, observed=False)  # exact
    # Observing the stream is what costs the frontier passes.
    observed = frame_calls_per_message(1, frames=200)
    assert quiet["engine_calls_per_frame"] < observed["engine_calls_per_frame"]


def test_engine_cost_of_an_arrival_is_per_frame_not_per_message():
    lone = frame_calls_per_message(1, frames=200)
    four = frame_calls_per_message(4, frames=200)
    # What the ACK table, the batcher and the frontier engine cost is
    # constant per frame ...
    assert lone["engine_calls_per_frame"] > 0
    assert (
        abs(four["engine_calls_per_frame"] - lone["engine_calls_per_frame"])
        <= FRAME_ENGINE_CALLS_SLACK
    )
    # ... so a message of a frame of four pays a quarter of it.
    assert four["calls_per_message"] <= (
        lone["calls_per_message"] - 0.7 * lone["engine_calls_per_frame"]
    )
