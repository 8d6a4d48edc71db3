"""Table I — emulated EC2 network status between North California and the
other regions (latency injected, bandwidth throttled to half observed)."""

from repro.bench.paper import assert_reproduced, experiments
from conftest import scale

EXP = experiments()["table1"]


def test_table1_network_matrix(benchmark, report):
    matrix = benchmark.pedantic(
        EXP.run, kwargs=EXP.scales[scale()], rounds=1, iterations=1
    )
    report.add(EXP.render(matrix))
    assert_reproduced(EXP, matrix)
