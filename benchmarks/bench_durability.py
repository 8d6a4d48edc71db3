"""Group-commit batch size vs. persisted-stability latency.

Not a figure of the paper — it guards the durability path added on top
of the reproduction.  With WAL-backed ``.persisted`` (honest durability)
every persisted claim costs an fsync, and the group-commit batch size
sets the trade: small batches fsync per message (low latency, high
fsync rate), large batches ride the group-commit interval (amortized
fsyncs, latency bounded by the timer).

A 3-AZ cluster runs a fixed traffic pattern per batch size; the origin
monitors ``MIN($ALLWNODES.persisted)`` and records, per message, the
virtual time from ``send()`` until the claim is fsync-backed on *every*
node.  A ``--record`` run lands in ``BENCH_durability.json`` at the repo
root so the perf trajectory covers the durability path too.
"""

from repro.bench import format_table
from repro.bench.runners import wal_calls_per_record
from repro.core.cluster import StabilizerCluster
from repro.core.config import StabilizerConfig
from repro.net.tc import NetemSpec
from repro.net.topology import Topology
from repro.sim.kernel import Simulator
from repro.storage.faultio import MemoryFileSystem
from repro.transport.messages import SyntheticPayload
from conftest import full_scale

BATCHES = (1, 4, 16, 64)
#: The timer that backstops a partial batch — large enough that the
#: batch trigger, not the timer, dominates for small batches.
COMMIT_INTERVAL_S = 0.05
SEND_INTERVAL_S = 0.005
PAYLOAD_BYTES = 256


def run_once(batch: int, messages: int) -> dict:
    topo = Topology.uniform(
        {f"n-{az}": az for az in ("az0", "az1", "az2")},
        NetemSpec(latency_ms=10, rate_mbit=100),
    )
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig.from_topology(
        topo,
        local="n-az0",
        predicates={"durable": "MIN($ALLWNODES.persisted)"},
        control_interval_s=0.005,
        durability=True,
        durability_group_commit_batch=batch,
        durability_group_commit_interval_s=COMMIT_INTERVAL_S,
    )
    cluster = StabilizerCluster(
        net, config, fs_factory=lambda name: MemoryFileSystem(seed=batch)
    )
    origin = cluster["n-az0"]

    # The send->persisted-stable delay is measured by the origin's
    # built-in stability instruments: send() stamps every sequence
    # number, and the 'durable' histogram fills as the frontier advances.
    def send_tick(remaining):
        origin.send(SyntheticPayload(PAYLOAD_BYTES))
        if remaining > 1:
            sim.call_later(SEND_INTERVAL_S, send_tick, remaining - 1)

    sim.call_later(SEND_INTERVAL_S, send_tick, messages)
    deadline = SEND_INTERVAL_S * messages + 5.0
    sim.run(until=deadline)

    fsyncs = sum(node.stats()["durability.wal_group_commits"] for node in cluster)
    appends = sum(node.stats()["durability.wal_appends"] for node in cluster)
    hist = origin.registry.histogram("stability_latency.durable")
    cluster.close()
    assert hist.count == messages, (
        f"batch {batch}: only {hist.count}/{messages} messages reached "
        "persisted stability before the deadline"
    )
    return {
        "batch": batch,
        "messages": messages,
        # count/sum/min/max are exact; p50/p99 are bucket-interpolated.
        "mean_ms": hist.mean * 1e3,
        "p50_ms": hist.percentile(50) * 1e3,
        "p99_ms": hist.percentile(99) * 1e3,
        "max_ms": hist.max * 1e3,
        "fsyncs": fsyncs,
        "fsyncs_per_message": fsyncs / messages,
        "wal_appends": appends,
    }


def test_group_commit_batch_vs_persisted_latency(benchmark, report, record_run):
    messages = 1000 if full_scale() else 200
    results = benchmark.pedantic(
        lambda: [run_once(batch, messages) for batch in BATCHES],
        rounds=1,
        iterations=1,
    )
    # Host cost of the append path per batch size, in exact Python calls
    # (tier-1 gates the batch-8 figure); counted outside the timed round.
    for r in results:
        r["calls_per_record"] = wal_calls_per_record(batch=r["batch"])
    report.add(
        format_table(
            [
                "batch",
                "msgs",
                "mean ms",
                "p50 ms",
                "p99 ms",
                "max ms",
                "fsyncs",
                "fsyncs/msg",
                "calls/record",
            ],
            [
                (
                    r["batch"],
                    r["messages"],
                    f"{r['mean_ms']:.1f}",
                    f"{r['p50_ms']:.1f}",
                    f"{r['p99_ms']:.1f}",
                    f"{r['max_ms']:.1f}",
                    r["fsyncs"],
                    f"{r['fsyncs_per_message']:.2f}",
                    f"{r['calls_per_record']:.1f}",
                )
                for r in results
            ],
            title="Persisted-stability latency (virtual) vs. group-commit batch",
        )
    )
    report.add_data("results", results)

    record_run(
        "durability",
        {
            "messages": messages,
            "commit_interval_s": COMMIT_INTERVAL_S,
            "send_interval_s": SEND_INTERVAL_S,
            "batches": list(BATCHES),
            "mean_ms": [r["mean_ms"] for r in results],
            "p99_ms": [r["p99_ms"] for r in results],
            "fsyncs_per_message": [r["fsyncs_per_message"] for r in results],
            "calls_per_record": [r["calls_per_record"] for r in results],
        },
    )

    # The trade the knob exists for: batching amortizes fsyncs...
    # (fsync counts are cluster-wide: 3 nodes each fsync every stream)
    per_message = [r["fsyncs_per_message"] for r in results]
    assert per_message == sorted(per_message, reverse=True)
    assert results[0]["fsyncs_per_message"] >= 2.9  # batch=1: 1/msg per node
    assert results[-1]["fsyncs_per_message"] < 0.5  # batch=64: amortized
    # ...at the price of persisted-stability latency.
    assert results[0]["mean_ms"] <= results[-1]["mean_ms"]
