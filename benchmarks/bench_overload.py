"""Overload robustness: a 10x regional flash crowd, closed loop vs. none.

Not a figure of the paper — it guards the admission-control and
SLA-controller layer (ROADMAP item: overload robustness) added on top of
the reproduction.  A sharded 8-node / 4-AZ cluster (8 shards x 3 owners)
runs the same write workload twice while one AZ's send rate ramps 10x:

- **baseline** — nothing between producers and ``send()``: the crowd
  saturates the narrow WAN, the retained buffers back up, and the
  windowed p99 send->stable latency blows through the SLA for the whole
  crowd (and takes seconds to recover after it ends);
- **controlled** — an :class:`~repro.core.admission.AdmissionController`
  gates every node's ingest and an
  :class:`~repro.core.slacontrol.SlaController` per shard stack walks the
  predicate down the relaxation ladder and back.  Shedding is bounded and
  explicit, nothing admitted is ever lost, and the p99 windows stay at
  (or briefly graze) the target.

A ``--record`` run lands in ``BENCH_overload.json`` at the repo root so
the perf trajectory covers the overload path too; each run records the full
per-window timeline for both modes.
"""

from repro.bench import format_table
from repro.bench.runners import run_overload_bench
from conftest import full_scale

TARGET_P99_S = 0.4


def test_flash_crowd_controller_vs_baseline(benchmark, report, record_run):
    result = benchmark.pedantic(
        lambda: run_overload_bench(
            target_p99_s=TARGET_P99_S,
            duration_s=14.0 if full_scale() else 10.0,
            crowd_hold_s=6.0 if full_scale() else 3.0,
        ),
        rounds=1,
        iterations=1,
    )
    baseline = result["baseline"]
    controlled = result["controlled"]
    rows = []
    for mode in (baseline, controlled):
        counters = mode["counters"]
        rows.append(
            (
                mode["mode"],
                counters["offered"],
                counters["sent"] + counters["queued"],
                counters["shed"],
                f"{mode['steady_p99_s']:.3f}",
                f"{mode['peak_p99_s']:.3f}",
                f"{mode['peak_pending_s']:.3f}",
                f"{mode['breach_windows']}/{mode['crowd_windows']}",
                f"{mode['settle_s']:.0f}",
            )
        )
    config = result["config"]
    report.add(
        format_table(
            [
                "mode",
                "offered",
                "accepted",
                "shed",
                "steady p99 (s)",
                "peak p99 (s)",
                "peak pending (s)",
                "breach windows",
                "settle (s)",
            ],
            rows,
            title=(
                f"{config['crowd_multiplier']:.0f}x flash crowd in "
                f"{config['crowd_az']} ({config['nodes']} nodes, "
                f"{config['shard_count']} shards x "
                f"{config['replication']} owners, "
                f"target p99 {config['target_p99_s']}s)"
            ),
        )
    )
    report.add_data("config", config)
    report.add_data("baseline", baseline)
    report.add_data("controlled", controlled)

    record_run(
        "overload",
        {
            "config": config,
            "baseline": {
                k: baseline[k]
                for k in (
                    "counters",
                    "steady_p99_s",
                    "peak_p99_s",
                    "peak_pending_s",
                    "breach_windows",
                    "crowd_windows",
                    "settle_s",
                    "timeline",
                )
            },
            "controlled": {
                k: controlled[k]
                for k in (
                    "counters",
                    "steady_p99_s",
                    "peak_p99_s",
                    "peak_pending_s",
                    "breach_windows",
                    "crowd_windows",
                    "settle_s",
                    "timeline",
                    "admission",
                    "max_degrade_steps",
                    "restored",
                )
            },
        },
    )

    # Both runs eventually drain: every admitted message stabilized.
    assert baseline["drained"] and controlled["drained"]
    # The baseline blows the SLA for most of the crowd...
    assert baseline["peak_p99_s"] > 2 * TARGET_P99_S
    assert baseline["breach_windows"] > baseline["crowd_windows"] // 2
    # ...while the closed loop holds it: bounded, explicit shedding at
    # the edge, an order-of-magnitude smaller latency peak, and only the
    # reaction windows (if any) above target.
    assert controlled["peak_p99_s"] < baseline["peak_p99_s"] / 5
    assert controlled["breach_windows"] <= baseline["breach_windows"] // 3
    admission = controlled["admission"]
    assert admission["admission.admitted_shed"] == 0
    assert admission["admission.shed"] > 0
    assert (
        admission["admission.shed"]
        < controlled["counters"]["offered"]
    )
    # The controllers actually reacted, then walked all the way back.
    assert controlled["max_degrade_steps"] >= 1
    assert controlled["restored"]
