"""Tiny-configuration runs of the hot-path drivers.

``run_dsl_microbench`` runs here at a size smaller than the microbench
experiment's report scale.  The per-message cost of an arrived frame
(one message, four to a frame, and four to a frame at a receiver that
delivers them) is checked against the ``hotpath``
experiment's own budget findings, so each budget is kept in one place.
This file also checks that the count is exact: measuring it twice gives
the same count.
"""

from repro.bench.runners import frame_calls_per_message, run_dsl_microbench
from repro.bench.runners.hotpath import HOTPATH


def _assert_finding_holds(metric, result):
    (expectation,) = [e for e in HOTPATH.expectations if e.metric == metric]
    holds, measured = expectation.check(result)
    assert holds, f"{metric} ({expectation.paper_value}): {measured}"


def test_dsl_microbench_smoke():
    rows = run_dsl_microbench(
        operator_counts=(1, 2), operand_counts=(5,), evaluations=100
    )
    assert len(rows) == 2
    for row in rows:
        assert row["compile_ms"] > 0
        assert row["eval_us"] > 0


def test_arrived_frame_stays_within_its_call_budget():
    lone = frame_calls_per_message(1, frames=200)
    _assert_finding_holds(
        "calls per message of an arrived frame of one", {"frame_of_one": lone}
    )
    assert lone == frame_calls_per_message(1, frames=200)  # exact


def test_message_of_a_frame_of_four_stays_within_its_call_budget():
    four = frame_calls_per_message(4, frames=200)
    _assert_finding_holds(
        "calls per message of an arrived frame of four", {"frame_of_four": four}
    )
    assert four == frame_calls_per_message(4, frames=200)  # exact


def test_delivered_frame_of_four_stays_within_its_call_budget():
    delivered = frame_calls_per_message(4, frames=200, delivered=True)
    _assert_finding_holds(
        "calls per message of an arrived frame of four that is delivered",
        {"frame_of_four_delivered": delivered},
    )
    assert delivered == frame_calls_per_message(4, frames=200, delivered=True)
