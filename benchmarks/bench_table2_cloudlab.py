"""Table II — network performance between Utah1 and the other CloudLab
servers (the real-WAN environment of the pub/sub experiments)."""

from repro.bench.paper import assert_reproduced, experiments
from conftest import scale

EXP = experiments()["table2"]


def test_table2_cloudlab_matrix(benchmark, report):
    matrix = benchmark.pedantic(
        EXP.run, kwargs=EXP.scales[scale()], rounds=1, iterations=1
    )
    report.add(EXP.render(matrix))
    assert_reproduced(EXP, matrix)
