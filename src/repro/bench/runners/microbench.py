"""Section VI-A microbenchmark: DSL compile/compute overhead over the
paper's sweep of 1-5 operators and 5-20 operands."""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.bench.paper import Arg, Experiment, finding, positive_int
from repro.bench.reporting import format_table
from repro.dsl.compiler import PredicateCompiler
from repro.dsl.interpreter import evaluate_ir
from repro.dsl.semantics import DslContext


def synthesize_predicate(operators: int, operands: int) -> str:
    """A predicate with exactly the given operator and operand counts.

    Mirrors the paper's sweep (1–5 operators, 5–20 operands), using
    KTH_MIN — their most expensive operator.
    """
    if operators < 1 or operands < operators:
        raise ValueError("need at least one operand per operator")
    share = operands // operators
    extra = operands % operators
    groups: List[List[int]] = []
    node = 1
    for i in range(operators):
        count = share + (1 if i < extra else 0)
        groups.append(list(range(node, node + count)))
        node += count
    # Innermost first: KTH_MIN(1, $a, $b), wrapped by successive operators
    # that take the inner predicate as one of their arguments.
    source = None
    for group in groups:
        args = ", ".join(f"${n}" for n in group)
        if source is None:
            source = f"KTH_MIN(1, {args})"
        else:
            source = f"KTH_MIN(1, {args}, {source})"
    return source


def run_dsl_microbench(
    operator_counts: Sequence[int] = (1, 2, 3, 4, 5),
    operand_counts: Sequence[int] = (5, 10, 15, 20),
    evaluations: int = 20_000,
) -> List[Dict[str, float]]:
    """Compile and evaluation cost per (operators, operands) cell."""
    nodes = [f"n{i}" for i in range(1, 21)]
    ctx = DslContext(nodes, {"az": nodes}, "n1")
    table = [[i * 10, i * 5] for i in range(1, 21)]
    rows = []
    for operators in operator_counts:
        for operands in operand_counts:
            if operands < operators:
                continue
            source = synthesize_predicate(operators, operands)
            compiler = PredicateCompiler(ctx)  # fresh: no cache effects
            predicate = compiler.compile(source)
            started = time.perf_counter()
            for _ in range(evaluations):
                predicate.evaluate(table)
            compiled_s = (time.perf_counter() - started) / evaluations
            started = time.perf_counter()
            interp_runs = max(evaluations // 10, 1)
            for _ in range(interp_runs):
                evaluate_ir(predicate.ir, table)
            interp_s = (time.perf_counter() - started) / interp_runs
            rows.append(
                {
                    "operators": operators,
                    "operands": operands,
                    "compile_ms": predicate.compile_time_s * 1e3,
                    "eval_us": compiled_s * 1e6,
                    "interp_eval_us": interp_s * 1e6,
                }
            )
    return rows


def _size(row) -> tuple:
    return row["operators"], row["operands"]


def render(rows) -> str:
    worst = max(rows, key=_size)
    cells = [
        (
            r["operators"],
            r["operands"],
            f"{r['compile_ms']:.3f}",
            f"{r['eval_us']:.3f}",
            f"{r['interp_eval_us']:.3f}",
        )
        for r in rows
    ]
    headers = ["operators", "operands", "compile ms", "JIT eval us", "interpreter us"]
    title = "Section VI-A: DSL compilation and computation cost"
    return (
        format_table(headers, cells, title=title)
        + "\npaper worst case (5 ops, 20 operands, libgccjit): compile ~30 ms, "
        "compute ~0.2 ms\nmeasured worst case (Python-bytecode JIT): compile "
        f"{worst['compile_ms']:.3f} ms, compute {worst['eval_us'] / 1e3:.5f} ms"
    )


# Every bound here is wall-clock time on this machine (kind "wall"): the
# worst case stays far below anything that would matter on the critical
# path (the paper argues 0.2 ms / 30 ms is acceptable).


@finding(
    "cost grows with operators and operands",
    "compile and compute cost rise along both axes",
    kind="wall",
)
def _grows(rows):
    small, large = min(rows, key=_size), max(rows, key=_size)
    holds = all(small[f] < large[f] for f in ("eval_us", "compile_ms"))
    measured = (
        f"eval {small['eval_us']:.2f} -> {large['eval_us']:.2f} us, "
        f"compile {small['compile_ms']:.3f} -> {large['compile_ms']:.3f} ms"
    )
    return holds, measured


@finding(
    "compilation is the one-time cost",
    "~30 ms to compile vs ~0.2 ms per computation",
    kind="wall",
)
def _compile_dominates(rows):
    ratio = min(r["compile_ms"] * 1e3 / r["eval_us"] for r in rows)
    return ratio > 1, f"compile / eval >= {ratio:.0f}x"


@finding(
    "never worse than the paper's libgccjit",
    "worst case compile ~30 ms, compute ~0.2 ms",
    kind="wall",
)
def _below_the_paper(rows):
    compile_ms = max(r["compile_ms"] for r in rows)
    eval_us = max(r["eval_us"] for r in rows)
    measured = f"worst compile {compile_ms:.3f} ms, worst eval {eval_us:.2f} us"
    return compile_ms < 30.0 and eval_us < 200.0, measured


EXPERIMENT = Experiment(
    name="microbench",
    help="Section VI-A DSL overhead",
    run=run_dsl_microbench,
    args=(Arg("--evals", "evaluations", positive_int, "10000"),),
    scales={
        "report": {"evaluations": 200},
        "default": {"evaluations": 10_000},
        "full": {"evaluations": 50_000},
    },
    render=render,
    expectations=(_grows, _compile_dominates, _below_the_paper),
)
