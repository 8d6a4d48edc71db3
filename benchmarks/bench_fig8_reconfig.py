"""Fig. 8 — latency under dynamic predicate reconfiguration.

1600 × 8 KB messages at 80 msg/s over the CloudLab WAN; a subscriber on
the slowest site (Clemson) subscribes/unsubscribes every five seconds and
the broker adjusts the reliable-delivery predicate accordingly.  Paper
findings:

- the *all sites* baseline sits ~3 ms above *three sites* (Massachusetts
  is only 3 ms faster than Clemson);
- the *changing predicate* line tracks whichever baseline matches the
  current subscription state, dropping as soon as the slowest site leaves
  the observation list.
"""

from repro.bench.paper import assert_reproduced, experiments
from conftest import RESULTS_DIR, scale

EXP = experiments()["fig8"]


def test_fig8_dynamic_reconfiguration(benchmark, report):
    result = benchmark.pedantic(
        EXP.run, kwargs=EXP.scales[scale()], rounds=1, iterations=1
    )
    report.add(EXP.render(result))
    report.add_data("all_sites_mean_ms", result["all_sites"].mean() * 1e3)
    report.add_data("three_sites_mean_ms", result["three_sites"].mean() * 1e3)
    report.add_data("obs", result["obs"])
    RESULTS_DIR.mkdir(exist_ok=True)
    result["changing"].to_csv(RESULTS_DIR / "fig8_changing.csv")
    assert_reproduced(EXP, result)
