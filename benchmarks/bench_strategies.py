"""Stabilization engines head-to-head (the strategy redesign, ROADMAP).

Not a figure of the paper — it guards the pluggable-strategy layer: the
same CloudLab WAN workload (Table II topology, sender at UT1) runs once
per engine, and the rows make the protocols' trades legible in numbers.
The ACK-table engine pays per-cell report traffic for the lowest
stability latency; the sequencer funnels O(n) report streams through one
node; the hybrid clock sends fixed-size frames but stabilizes only on
clock ticks, so its percentiles carry interval slack (docs/strategies.md).

A ``--record`` run lands in ``BENCH_strategy.json`` at the repo root so
the perf trajectory covers the strategy layer too; every run records all three
engines' numbers side by side.
"""

from repro.bench import format_table
from repro.bench.runners import run_strategy_comparison
from repro.core.strategy import STRATEGY_NAMES
from conftest import full_scale


def test_strategy_head_to_head(benchmark, report, record_run):
    messages = 480 if full_scale() else 120
    result = benchmark.pedantic(
        lambda: run_strategy_comparison(
            strategies=STRATEGY_NAMES, messages=messages
        ),
        rounds=1,
        iterations=1,
    )
    rows = result["rows"]
    report.add(
        format_table(
            [
                "engine",
                "p50 (ms)",
                "p99 (ms)",
                "ctrl B/s",
                "ctrl frames",
                "delivered msg/s",
            ],
            [
                (
                    r["strategy"],
                    f"{r['latency_p50_s'] * 1e3:.1f}",
                    f"{r['latency_p99_s'] * 1e3:.1f}",
                    f"{r['control_bytes_per_s']:.0f}",
                    int(r["control_frames"]),
                    f"{r['delivered_throughput_mps']:.1f}",
                )
                for r in rows
            ],
            title=(
                f"Stabilization engines, CloudLab WAN, "
                f"{messages} msgs @ {result['config']['rate_per_s']:.0f}/s"
            ),
        )
    )
    report.add_data("config", result["config"])
    report.add_data("rows", rows)

    record_run(
        "strategy",
        {
            "topology": result["config"]["topology"],
            "messages": messages,
            "rate_per_s": result["config"]["rate_per_s"],
            "payload_bytes": result["config"]["payload_bytes"],
            "engines": {
                r["strategy"]: {
                    "latency_p50_s": r["latency_p50_s"],
                    "latency_p99_s": r["latency_p99_s"],
                    "control_bytes_per_s": r["control_bytes_per_s"],
                    "delivered_throughput_mps": r["delivered_throughput_mps"],
                }
                for r in rows
            },
        },
    )

    by_name = {r["strategy"]: r for r in rows}
    assert set(by_name) == set(STRATEGY_NAMES)
    for r in rows:
        # Every engine must stabilize the whole workload on this WAN.
        assert r["converged"], r
        assert r["control_bytes_per_s"] > 0, r
    # The redesign's headline trades, in numbers.  Funneling reports
    # through one sequencer beats every-to-every ACK streaming on
    # control bytes; and the hybrid clock's tick-gated stability shows
    # up as interval slack in the latency tail.
    acktable = by_name["acktable"]
    assert by_name["sequencer"]["control_bytes"] < acktable["control_bytes"]
    assert (
        by_name["hybrid_clock"]["latency_p99_s"] >= acktable["latency_p99_s"]
    )
