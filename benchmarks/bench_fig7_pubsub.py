"""Fig. 7 — pub/sub latency and throughput vs sending rate.

8 KB messages from UT1 to subscribers at UT2 (LAN) and WI/CLEM/MA (WAN),
rates 250–16,000 msg/s, Stabilizer prototype vs the Pulsar model.  The
paper's findings to reproduce:

- every WAN pair bottlenecks at the same throughput for both systems,
  with latency rising sharply once the rate exceeds the bandwidth;
- on the LAN (red lines), no backlog can form, yet Pulsar's latency grows
  with rate (JVM garbage collection) while Stabilizer's stays flat;
- Stabilizer is as fast or faster than Pulsar in all scenarios.
"""

from repro.bench.paper import assert_reproduced, experiments
from conftest import scale

EXP = experiments()["fig7"]


def test_fig7_pubsub_latency_and_throughput(benchmark, report):
    sweep = benchmark.pedantic(
        EXP.run, kwargs=EXP.scales[scale()], rounds=1, iterations=1
    )
    report.add(EXP.render(sweep))
    assert_reproduced(EXP, sweep)
