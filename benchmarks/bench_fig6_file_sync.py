"""Fig. 6 — per-file synchronization time: predicates vs PhxPaxos.

One file at a time on an idle emulated EC2 WAN.  The paper's findings:

- PhxPaxos and MajorityWNodes curves "mostly overlap" (a node-majority
  quorum is bound by the same North Virginia links);
- MajorityRegions is faster, with the gap growing with file size;
- averaged over the sweep, MajorityRegions improves end-to-end latency
  over PhxPaxos by 24.75 %.
"""

from repro.bench.paper import assert_reproduced, experiments
from conftest import scale

EXP = experiments()["fig6"]


def test_fig6_file_sync_time(benchmark, report):
    result = benchmark.pedantic(
        EXP.run, kwargs=EXP.scales[scale()], rounds=1, iterations=1
    )
    report.add(EXP.render(result))
    report.add_data(
        "sync_time_s",
        {
            system: {str(size): t for size, t in times.items()}
            for system, times in result["sync_time_s"].items()
        },
    )
    report.add_data("improvement_vs_paxos", result["improvement_vs_paxos"])
    assert_reproduced(EXP, result)
