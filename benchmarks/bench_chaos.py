"""Chaos harness throughput: invariant checks/sec under fault injection.

Not a figure of the paper — this guards the failure path the same way
``bench_hotpath_frontier`` guards the happy path.  A seeded 3-AZ/6-node
chaos run (crashes, partitions, heals under continuous traffic) must
complete with zero safety-invariant violations, and the rate at which
the checker grinds through its comparisons is recorded
(``--record``) to ``BENCH_chaos.json`` at the repo root so the perf
trajectory covers the failure path too.
"""

from repro.bench import format_counters, format_table
from repro.chaos import ChaosConfig, run_chaos
from conftest import full_scale

SEEDS = (0, 7, 42)


def test_chaos_invariant_check_throughput(benchmark, report, record_run):
    events = 30 if full_scale() else 14
    reports = benchmark.pedantic(
        lambda: [
            run_chaos(ChaosConfig(seed=seed, events=events)) for seed in SEEDS
        ],
        rounds=1,
        iterations=1,
    )
    report.add(
        format_table(
            [
                "seed",
                "events",
                "virtual s",
                "checks",
                "checks/s",
                "monitor evts",
                "releases",
                "replayed",
                "violations",
            ],
            [
                (
                    r["seed"],
                    len(r["fired"]),
                    f"{r['virtual_end_s']:.1f}",
                    r["invariant_checks"],
                    f"{r['checks_per_s']:.0f}",
                    r["monitor_events"],
                    r["releases_checked"],
                    int(r["cluster_totals"]["replayed_chunks"]),
                    len(r["violations"]),
                )
                for r in reports
            ],
            title="Chaos harness: invariant-check throughput per seeded run",
        )
    )
    totals = reports[0]["cluster_totals"]
    report.add(
        format_counters(
            {
                "degradations": int(totals["degradations"]),
                "reinclusions": int(totals["reinclusions"]),
                "transport_suspensions": int(totals["transport_suspensions"]),
                "transport_retransmissions": int(
                    totals["transport_retransmissions"]
                ),
                "duplicates_dropped": int(totals["duplicates_dropped"]),
                "replayed_chunks": int(totals["replayed_chunks"]),
            },
            title=f"fault-path counters, seed {reports[0]['seed']}",
        )
    )
    report.add_data("reports", reports)

    record_run(
        "chaos",
        {
            "events": events,
            "seeds": list(SEEDS),
            "checks_per_s": [r["checks_per_s"] for r in reports],
            "invariant_checks": [r["invariant_checks"] for r in reports],
            "monitor_events": [r["monitor_events"] for r in reports],
            "waiter_timeouts": [r["waiter_timeouts"] for r in reports],
            "violations": sum(len(r["violations"]) for r in reports),
        },
    )

    for r in reports:
        assert not r["violations"], r["violations"]
        assert len(r["fired"]) >= 10
        assert r["waiter_timeouts"] == 0
