"""Hot-path harness: reports/sec through the frontier engine.

Not a figure of the paper — this guards the repo's own hottest loop.
Every control report funnels into ``FrontierEngine.reevaluate``; the
incremental engine (reverse dependency index + algebraic short-circuits
+ heap waiters) must stay well ahead of the brute-force baseline that
re-evaluates every dependent predicate per report — held to that on
Python calls per report, a count, not on the wall-clock ratio.

A ``--record`` run appends its grid to ``BENCH_hotpath.json`` at the repo
root (a trajectory across PRs), so a future change that regresses this path is
visible in the recorded history, not just in one session's output.
"""

from repro.bench import format_counters, format_table
from repro.bench.runners import hotpath_calls_per_report, run_hotpath_frontier
from conftest import full_scale

# The acceptance cell, 16 predicates x 8 nodes, gated on a count: how
# many times the incremental engine's Python calls per report the
# brute-force baseline makes in the hot loop (50.7 vs 162.2 at 5,000
# reports, 50.5 vs 162.0 at REPRO_FULL's 20,000).  The counts are exact
# per scale, so each is gated against its own measured ratio; the
# tolerance leaves room for a call or two more per report, not for a
# change that gives the saving back — and, unlike the evaluation
# counters, a constant-factor slowdown of the incremental path moves it.
# The wall-clock speed-up of the same cell stays in the table and the
# recorded row as information: four runs on one box read 2.41x, 2.51x,
# 1.75x and 3.81x with identical evaluation counts, so the 2.0x it used
# to be gated on was decided by the machine's load.
KEY_PREDICATES = 16
KEY_NODES = 8
CALLS_RATIO = {5_000: 3.20, 20_000: 3.21}
CALLS_TOLERANCE = 0.05


def test_hotpath_frontier_reports_per_sec(benchmark, report, record_run):
    reports = 20_000 if full_scale() else 5_000
    rows = benchmark.pedantic(
        lambda: run_hotpath_frontier(
            predicate_counts=(4, 16, 64),
            node_counts=(2, 8, 16),
            reports=reports,
        ),
        rounds=1,
        iterations=1,
    )
    report.add(
        format_table(
            [
                "predicates",
                "nodes",
                "incremental rps",
                "brute rps",
                "speedup",
                "p50 us",
                "p99 us",
                "evaluations",
                "skipped idx",
                "skipped sc",
            ],
            [
                (
                    r["predicates"],
                    r["nodes"],
                    f"{r['incremental_rps']:.0f}",
                    f"{r['brute_rps']:.0f}",
                    f"{r['speedup']:.2f}x",
                    f"{r['latency_p50_us']:.1f}",
                    f"{r['latency_p99_us']:.1f}",
                    r["evaluations"],
                    r["skipped_by_index"],
                    r["skipped_by_shortcircuit"],
                )
                for r in rows
            ],
            title="Hot path: frontier reports/sec, incremental vs brute force",
        )
    )
    key_row = next(
        r
        for r in rows
        if r["predicates"] == KEY_PREDICATES and r["nodes"] == KEY_NODES
    )
    calls = hotpath_calls_per_report(KEY_PREDICATES, KEY_NODES, reports)
    calls_ratio = calls["brute"] / calls["incremental"]
    report.add(
        format_counters(
            {
                "evaluations": key_row["evaluations"],
                "skipped_by_index": key_row["skipped_by_index"],
                "skipped_by_shortcircuit": key_row["skipped_by_shortcircuit"],
                "fast_advances": key_row["fast_advances"],
                "compiler_cache_hits": key_row["compiler_cache_hits"],
                "brute_evaluations": key_row["brute_evaluations"],
                "calls_per_report": round(calls["incremental"], 2),
                "brute_calls_per_report": round(calls["brute"], 2),
            },
            title=(
                f"engine counters at {KEY_PREDICATES} predicates "
                f"x {KEY_NODES} nodes ({calls_ratio:.2f}x fewer calls per "
                f"report; wall speedup {key_row['speedup']:.2f}x, not gated)"
            ),
        )
    )
    report.add_data("rows", rows)
    report.add_data("calls_per_report", calls)

    record_run(
        "hotpath",
        {
            "reports": reports,
            "key_cell": {
                "predicates": KEY_PREDICATES,
                "nodes": KEY_NODES,
                "incremental_rps": key_row["incremental_rps"],
                "brute_rps": key_row["brute_rps"],
                "speedup": key_row["speedup"],
                "calls_per_report": calls,
                "latency_p50_us": key_row["latency_p50_us"],
                "latency_p99_us": key_row["latency_p99_us"],
            },
            "rows": rows,
        },
    )

    for row in rows:
        assert row["frontiers_match"], (
            f"incremental != brute at {row['predicates']}x{row['nodes']}"
        )
        assert row["evaluations"] <= row["brute_evaluations"]
        assert 0 < row["latency_p50_us"] <= row["latency_p99_us"]
    calls_gate = CALLS_RATIO[reports] * (1 - CALLS_TOLERANCE)
    assert calls_ratio >= calls_gate, (
        f"the incremental engine saves {calls_ratio:.2f}x calls per report, "
        f"below the {calls_gate:.2f}x gate ({CALLS_RATIO[reports]}x measured "
        f"at {reports} reports, less {CALLS_TOLERANCE:.0%})"
    )
