"""``pytest benchmarks`` must leave ``git status`` clean.

Everything a bench writes goes through the ``report`` fixture of
``benchmarks/conftest.py`` into the git-ignored ``benchmarks/results/``.
This AST lint keeps it that way: no bench module writes a file of its
own.
"""

import ast
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
WRITERS = {"write_text", "write_bytes", "open"}


def _violations(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in WRITERS:
                yield f"line {node.lineno}: writes a file itself ({name})"


def test_bench_modules_write_only_through_the_conftest():
    modules = sorted(BENCHMARKS.glob("*.py"))
    assert len(modules) > 1  # not vacuous: the suite is where we look
    violations = [
        f"benchmarks/{path.name} {violation}"
        for path in modules
        if path.name != "conftest.py"
        for violation in _violations(path.read_text(encoding="utf-8"))
    ]
    assert not violations, "use the report fixture:\n  " + "\n  ".join(violations)


def test_hygiene_lint_catches_each_shape():
    old_block = (
        'RESULT = Path(__file__).parent / "chaos.json"\n'
        "def test_x():\n"
        "    RESULT.write_text('{}')\n"
    )
    assert [v.split(":")[0] for v in _violations(old_block)] == ["line 3"]
    assert list(_violations("with open(path, 'w') as fh: pass"))
    assert not list(_violations('report.add_data("result", {})'))


# -- every claim lives in one place ------------------------------------------
#
# Each experiment of ``repro.bench.paper.experiments()`` — the paper's and
# the repo's own — is declared once: driver, flags, scales, printer,
# findings.  The CLI, the one module under ``benchmarks/`` and the tier-1
# report gate read that declaration.  These lints keep a second copy from
# growing back.

SRC_BENCH = BENCHMARKS.parent / "src" / "repro" / "bench"
#: All ``benchmarks/`` holds: the fixtures and the one parametrized module.
SUITE = {"conftest.py", "bench_experiments.py"}


def _claims_of_its_own(source):
    """What the bench module may not hold: an ``assert`` statement, or
    anything but one ``assert_reproduced``."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield f"line {node.lineno}: assert statement"
    checks = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", "") == "assert_reproduced"
    ]
    if len(checks) != 1:
        yield f"{len(checks)} assert_reproduced calls, want exactly 1"


def _frontier_loops(source):
    """Functions shaped like a stability monitor doing the send->stable
    bookkeeping by hand: ``f(origin, frontier, old, ...)`` looping over
    ``range(..., frontier + 1)``."""
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or len(func.args.args) < 3:
            continue
        frontier = func.args.args[1].arg
        for loop in ast.walk(func):
            if not (
                isinstance(loop, ast.For)
                and isinstance(loop.iter, ast.Call)
                and getattr(loop.iter.func, "id", "") == "range"
                and loop.iter.args
            ):
                continue
            stop = loop.iter.args[-1]
            if (
                isinstance(stop, ast.BinOp)
                and isinstance(stop.op, ast.Add)
                and getattr(stop.left, "id", None) == frontier
            ):
                yield func.name


def test_declared_experiments_are_checked_in_one_place():
    from repro.bench.paper import experiments

    for name, exp in experiments().items():
        assert exp.expectations, f"{name} declares no finding"
    assert {path.name for path in BENCHMARKS.glob("*.py")} == SUITE, (
        "a bench is an experiment declared in repro.bench.runners, not a module"
    )
    source = (BENCHMARKS / "bench_experiments.py").read_text(encoding="utf-8")
    violations = list(_claims_of_its_own(source))
    assert not violations, (
        "a finding belongs in the experiment's expectations:\n  "
        + "\n  ".join(violations)
    )


def test_experiments_md_lists_every_declared_finding():
    from repro.bench.paper import experiments

    text = " ".join(
        (BENCHMARKS.parent / "EXPERIMENTS.md").read_text(encoding="utf-8").split()
    )
    missing = [
        f"{name}: *{finding.kind}* — {finding.metric}"
        for name, exp in experiments().items()
        for finding in exp.expectations
        if f"*{finding.kind}* — {finding.metric}" not in text
    ]
    assert not missing, "EXPERIMENTS.md does not list:\n  " + "\n  ".join(missing)


def test_experiment_subcommands_are_the_table():
    import argparse

    from repro.bench.paper import experiments
    from repro.cli import build_parser

    (subcommands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    generated = {
        name
        for name, command in subcommands.items()
        if command.get_default("fn").__qualname__.startswith("_experiment_command")
    }
    assert generated == set(experiments())


def test_one_send_to_stable_probe():
    modules = sorted(SRC_BENCH.rglob("*.py"))
    assert len(modules) > 15
    holders = {
        str(path.relative_to(SRC_BENCH))
        for path in modules
        if list(_frontier_loops(path.read_text(encoding="utf-8")))
    }
    assert holders == {"runners/kit.py"}, (
        "time send->stable through repro.bench.runners.kit.StabilityProbe"
    )


def test_claims_lint_catches_each_shape():
    old_bench = (
        "def test_fig3(benchmark, report):\n"
        "    result = benchmark.pedantic(run, rounds=1)\n"
        "    assert result['latency'] < 1\n"
    )
    assert len(list(_claims_of_its_own(old_bench))) == 2  # assert; no check
    assert not list(_claims_of_its_own("assert_reproduced(EXP, run())"))
    old_probe = (
        "def monitor(origin, frontier, old, _site=site):\n"
        "    for seq in range(old + 1, frontier + 1):\n"
        "        ack_times[(_site, seq)] = sim.now\n"
    )
    assert list(_frontier_loops(old_probe)) == ["monitor"]
    bounded = old_probe.replace("old + 1, frontier", "start, frontier")
    assert list(_frontier_loops(bounded)) == ["monitor"]
    assert not list(_frontier_loops("def f(a, b, c):\n    for i in range(b): pass"))
