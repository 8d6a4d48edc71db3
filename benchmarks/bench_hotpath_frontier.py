"""Hot-path harness: reports/sec through the frontier engine.

Not a figure of the paper — this guards the repo's own hottest loop.
Every control report funnels into ``FrontierEngine.reevaluate``; the
incremental engine (reverse dependency index + algebraic short-circuits
+ heap waiters) must stay well ahead of the brute-force baseline that
re-evaluates every dependent predicate per report.

A ``--record`` run appends its grid to ``BENCH_hotpath.json`` at the repo
root (a trajectory across PRs), so a future change that regresses this path is
visible in the recorded history, not just in one session's output.
"""

from repro.bench import format_counters, format_table
from repro.bench.runners import run_hotpath_frontier
from conftest import full_scale

# The acceptance cell: the incremental engine must be at least this much
# faster than the brute-force baseline at 16 predicates x 8 nodes.
KEY_PREDICATES = 16
KEY_NODES = 8
MIN_SPEEDUP = 2.0


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
    report.add(
        format_counters(
            {
                "evaluations": key_row["evaluations"],
                "skipped_by_index": key_row["skipped_by_index"],
                "skipped_by_shortcircuit": key_row["skipped_by_shortcircuit"],
                "fast_advances": key_row["fast_advances"],
                "compiler_cache_hits": key_row["compiler_cache_hits"],
                "brute_evaluations": key_row["brute_evaluations"],
            },
            title=(
                f"engine counters at {KEY_PREDICATES} predicates "
                f"x {KEY_NODES} nodes"
            ),
        )
    )
    report.add_data("rows", rows)

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
    assert key_row["speedup"] >= MIN_SPEEDUP
