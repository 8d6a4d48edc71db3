"""Table III: the six predicates of the evaluation, compiled verbatim."""

from __future__ import annotations

from typing import Dict, List

from repro.bench.paper import Experiment, finding
from repro.bench.reporting import format_table
from repro.bench.topologies import EC2_NODES, EC2_SENDER
from repro.dsl.compiler import PredicateCompiler
from repro.dsl.interpreter import evaluate_ir
from repro.dsl.semantics import DslContext

# Verbatim from Table III (modulo the LaTeX space in region names).
TABLE3 = {
    "OneRegion": "MAX(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
    "MajorityRegions": "KTH_MAX(2, MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
    "AllRegions": "MIN(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
    "OneWNode": "MAX($ALLWNODES - $MYWNODE)",
    "MajorityWNodes": "KTH_MAX(SIZEOF($ALLWNODES)/2 + 1, ($ALLWNODES - $MYWNODE))",
    "AllWNodes": "MIN($ALLWNODES - $MYWNODE)",
}

#: The ACK table the predicates are evaluated on: one row per Fig. 2 node.
TEST_TABLE = [[i * 7 % 50, 0] for i in range(1, 9)]


def fig2_groups() -> Dict[str, List[str]]:
    """The Fig. 2 deployment's regions: region -> its nodes."""
    groups: Dict[str, List[str]] = {}
    for node, region in EC2_NODES.items():
        groups.setdefault(region, []).append(node)
    return groups


def fig2_compiler() -> PredicateCompiler:
    """A compiler for predicates evaluated at the Fig. 2 sender."""
    return PredicateCompiler(DslContext(list(EC2_NODES), fig2_groups(), EC2_SENDER))


def run_table3() -> Dict[str, Dict[str, object]]:
    """Compile each Table III predicate against the Fig. 2 deployment and
    evaluate it on :data:`TEST_TABLE`, JIT and interpreter both."""
    compiler = fig2_compiler()
    rows = {}
    for name, source in TABLE3.items():
        predicate = compiler.compile(source)
        rows[name] = {
            "source": predicate.source,
            "compile_ms": predicate.compile_time_s * 1e3,
            "jit": predicate.evaluate(TEST_TABLE),
            "interpreter": evaluate_ir(predicate.ir, TEST_TABLE),
        }
    return rows


def render(rows) -> str:
    return format_table(
        ["name", "predicate", "compile ms", "frontier@test-table"],
        [
            (name, row["source"], f"{row['compile_ms']:.3f}", row["jit"])
            for name, row in rows.items()
        ],
        title="Table III predicates, JIT-compiled against the Fig. 2 deployment",
    )


@finding(
    "JIT equals the interpreter on every predicate",
    "(differential check: one frontier per predicate)",
    kind="exact",
)
def _jit_is_the_interpreter(rows):
    differ = [name for name, row in rows.items() if row["jit"] != row["interpreter"]]
    return not differ, "differ: " + ", ".join(differ) if differ else "all six agree"


@finding("region strength ordering", "AllRegions <= MajorityRegions <= OneRegion")
def _region_ordering(rows):
    chain = [rows[name]["jit"] for name in ("AllRegions", "MajorityRegions", "OneRegion")]
    return chain == sorted(chain), " <= ".join(map(str, chain))


EXPERIMENT = Experiment(
    name="table3",
    help="Table III predicates",
    run=run_table3,
    args=(),
    scales={"report": {}, "default": {}, "full": {}},
    render=render,
    expectations=(_jit_is_the_interpreter, _region_ordering),
)
