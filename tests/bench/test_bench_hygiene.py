"""``pytest benchmarks`` must leave ``git status`` clean.

The tracked ``BENCH_*.json`` trajectories at the repo root are written by
one fixture, ``benchmarks/conftest.py::record_run``, and only in a run
started with ``--record``; everything else a bench writes goes through
the ``report`` fixture into the git-ignored ``benchmarks/results/``.
This AST lint keeps it that way: no bench module names a trajectory file
or writes a file of its own.
"""

import ast
import re
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
TRAJECTORY = re.compile(r"BENCH_\w*\.json|BENCH_$")
WRITERS = {"write_text", "write_bytes", "open"}


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def _violations(source):
    tree = ast.parse(source)
    prose = set(map(id, _docstrings(tree)))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in prose
            and TRAJECTORY.search(node.value)
        ):
            yield f"line {node.lineno}: names a trajectory file ({node.value!r})"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in WRITERS:
                yield f"line {node.lineno}: writes a file itself ({name})"


def test_bench_modules_write_only_through_the_conftest():
    modules = sorted(BENCHMARKS.glob("*.py"))
    assert len(modules) > 20  # not vacuous: the suite is where we look
    violations = [
        f"benchmarks/{path.name} {violation}"
        for path in modules
        if path.name != "conftest.py"
        for violation in _violations(path.read_text(encoding="utf-8"))
    ]
    assert not violations, (
        "use the record_run(name, row) and report fixtures:\n  "
        + "\n  ".join(violations)
    )


def test_record_run_is_gated_on_the_record_option():
    conftest = (BENCHMARKS / "conftest.py").read_text(encoding="utf-8")
    fixture = next(
        node
        for node in ast.parse(conftest).body
        if isinstance(node, ast.FunctionDef) and node.name == "record_run"
    )
    record = next(n for n in fixture.body if isinstance(n, ast.FunctionDef))
    guard = record.body[0]  # before anything is read or written
    assert isinstance(guard, ast.If) and isinstance(guard.body[0], ast.Return)
    assert ast.unparse(guard.test) == "not request.config.getoption('--record')"


def test_hygiene_lint_catches_each_shape():
    old_block = (
        'TRAJECTORY = Path(__file__).parent.parent / "BENCH_chaos.json"\n'
        "def test_x():\n"
        "    TRAJECTORY.write_text('{}')\n"
    )
    assert [v.split(":")[0] for v in _violations(old_block)] == ["line 1", "line 3"]
    assert list(_violations('name = f"BENCH_{kind}.json"'))
    assert list(_violations("with open(path, 'w') as fh: pass"))
    assert not list(
        _violations('"""Lands in ``BENCH_chaos.json``."""\nrecord_run("chaos", {})')
    )
