"""Fig. 3 — quorum read latency vs message size (1–64 KB).

Quorum servers on UT1/WI/CLEM, Nr = Nw = 2, writer at UT2, reader at UT1.
The paper's finding: read latency is comparable to the Wisconsin RTT (the
second-fastest quorum member) with a slight rise as messages grow.
"""

from repro.bench.paper import assert_reproduced, experiments
from conftest import scale

EXP = experiments()["fig3"]


def test_fig3_quorum_read_latency(benchmark, report):
    result = benchmark.pedantic(
        EXP.run, kwargs=EXP.scales[scale()], rounds=1, iterations=1
    )
    report.add(EXP.render(result))
    assert_reproduced(EXP, result)
