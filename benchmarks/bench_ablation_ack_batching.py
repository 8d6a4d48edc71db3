"""Ablation (ours) — control-plane ACK batching.

The control plane batches stability reports (the paper's single-threaded
design "perform[s] a batch of actions, then report[s] them via stability
upcalls").  This ablation sweeps the flush interval to expose the
trade-off it buys: fewer control reports against later frontier detection.
The gate is on the engine's reports, the quantity batching controls; the
carrier's total frame count is shown beside it but also holds tail probes
and heartbeats, which do not shrink with the interval.
"""

from repro.bench import format_table
from repro.bench.runners import run_ack_batching
from conftest import full_scale


def test_ack_batching_tradeoff(benchmark, report):
    messages = 500 if full_scale() else 150
    rows = benchmark.pedantic(
        lambda: run_ack_batching(messages=messages), rounds=1, iterations=1
    )
    report.add(
        format_table(
            [
                "flush interval ms",
                "mean detection lag ms",
                "control reports",
                "carrier frames",
            ],
            [
                (
                    f"{r['interval_ms']:.1f}",
                    f"{r['mean_detect_latency_ms']:.2f}",
                    int(r["control_reports"]),
                    int(r["control_frames"]),
                )
                for r in rows
            ],
            title="Ablation: control-plane flush interval vs detection lag",
        )
    )
    # Larger intervals -> no more reports, monotonically higher lag.
    lags = [r["mean_detect_latency_ms"] for r in rows]
    reports = [r["control_reports"] for r in rows]
    assert lags == sorted(lags)
    assert reports == sorted(reports, reverse=True)
    assert reports[-1] < reports[0]
