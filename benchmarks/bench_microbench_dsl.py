"""Section VI-A — overhead of the user-defined consistency mechanism.

The paper sweeps 1–5 operators and 5–20 operands; its worst case (five
KTH_MIN operators, 20 operands, compiled via libgccjit) costs ~0.2 ms per
computation and ~30 ms to compile.  Our JIT compiles DSL source to Python
bytecode: the absolute numbers differ, but the same shape must hold —
cost grows with operators and operands, compilation is a one-time cost
orders of magnitude above a single evaluation.  Every finding here is a
wall-clock bound, so this is the one place they are enforced.
"""

from repro.bench.paper import assert_reproduced, experiments
from conftest import scale

EXP = experiments()["microbench"]


def test_dsl_compile_and_compute_overhead(benchmark, report):
    rows = benchmark.pedantic(
        EXP.run, kwargs=EXP.scales[scale()], rounds=1, iterations=1
    )
    report.add(EXP.render(rows))
    assert_reproduced(EXP, rows)
