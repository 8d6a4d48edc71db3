"""Fig. 5 — stability-frontier latency across the trace replay.

The trace is replayed against the emulated EC2 WAN; for each of the six
Table III predicates we record, per message, when its synchronization
progress first satisfied the predicate.  The paper's observations to
reproduce:

- three latency spikes, one per huge file;
- weaker consistency levels are less impacted than stronger ones;
- MajorityWNodes is more vulnerable to load spikes than MajorityRegions.
"""

from repro.bench.paper import assert_reproduced, experiments
from conftest import RESULTS_DIR, scale

EXP = experiments()["fig5"]


def test_fig5_stability_frontier_latency(benchmark, report):
    result = benchmark.pedantic(
        EXP.run, kwargs=EXP.scales[scale()], rounds=1, iterations=1
    )
    report.add(EXP.render(result))
    series = result["series"]
    report.add_data("summaries", {key: s.summary() for key, s in series.items()})
    report.add_data("obs_stability", result["obs_stability"])
    RESULTS_DIR.mkdir(exist_ok=True)
    for key, s in series.items():
        s.downsample(400).to_csv(
            RESULTS_DIR / f"fig5_{key}.csv", header=("message_seq", "latency_s")
        )
    assert_reproduced(EXP, result)
