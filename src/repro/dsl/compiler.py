"""The JIT: generate Python source from IR and compile it to bytecode.

The paper compiles predicates with libgccjit "creating and linking binary
code at run-time" so that evaluation on the critical path is one cheap
call.  The Python equivalent is code generation + :func:`compile`: the
predicate becomes a single bytecode function over the ACK table, with no
tree walking, no dictionary lookups and no interpretation of the IR.

``MIN(MAX($AZ_NV), MAX($AZ_Oregon))`` compiles to roughly::

    def _predicate(t):
        return min(max(t[2][0], t[3][0]), max(t[6][0]))

The tree-walking :mod:`repro.dsl.interpreter` over the same IR is the
non-JIT ablation measured by ``repro jit``.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.dsl.parser import parse
from repro.dsl.semantics import (
    ArithIr,
    Const,
    DslContext,
    Ir,
    KthIr,
    Leaf,
    ReduceIr,
    expand,
    ir_leaves,
)
from repro.errors import DslEvaluationError, DslSemanticError

Table = Sequence[Sequence[int]]


def _kth(k: int, values: tuple, largest: bool) -> int:
    """K-th largest/smallest of ``values`` (k is 1-based)."""
    if not 1 <= k <= len(values):
        raise DslEvaluationError(
            f"K parameter {k} outside 1..{len(values)} operands"
        )
    # ``sorted`` runs in C; ``heapq.nlargest`` is a Python loop that only
    # pays off for operand counts no predicate has (these are 4-8 wide).
    ordered = sorted(values)
    return ordered[-k] if largest else ordered[k - 1]


def classify_shortcircuit(ir: Ir) -> Optional[str]:
    """The algebraic class the frontier engine can exploit incrementally.

    Both classes cover arithmetic-free trees of ``MIN`` / ``MAX`` /
    ``KTH_*`` (with a constant K) over table cells and constants, nested
    to any depth, and both rely on cells never regressing.

    ``"max"`` — a tree of ``MAX`` alone (a lone cell or constant
    included) is the maximum of its leaves: a cell update can only raise
    the result, and only when the new value exceeds the cached one; the
    new result is then exactly that value.

    ``"witness"`` — any other such tree.  For every threshold ``v``,
    ``[f(t) > v]`` is a monotone Boolean function of the bits
    ``[t_c > v]`` (``MIN`` is AND, ``MAX`` OR, ``KTH_*`` a threshold
    gate, a constant a fixed bit).  Raising a cell whose value was
    already above the cached result ``v`` leaves every bit at ``v`` as it
    was, so ``f`` stays ``<= v``, and monotonicity keeps it ``>= v``: only
    updates to a "witness" cell — value ``<= v`` at the last evaluation —
    need a re-evaluation.

    ``None`` — arithmetic anywhere in the tree, or a data-dependent K; no
    algebraic shortcut applies and the engine always re-evaluates.
    """
    if isinstance(ir, (Leaf, Const)):
        return "max"
    if isinstance(ir, KthIr) and not isinstance(ir.k, Const):
        return None
    if not isinstance(ir, (ReduceIr, KthIr)):
        return None
    kinds = [classify_shortcircuit(item) for item in ir.items]
    if None in kinds:
        return None
    if isinstance(ir, ReduceIr) and ir.op == "MAX" and "witness" not in kinds:
        return "max"
    return "witness"


def generate_source(ir: Ir) -> str:
    """Emit the Python source for one predicate function, ``_predicate``."""
    return f"def _predicate(t):\n    return {_gen(ir)}\n"


def _gen(ir: Ir) -> str:
    if isinstance(ir, Leaf):
        return f"t[{ir.node}][{ir.type_id}]"
    if isinstance(ir, Const):
        return repr(ir.value)
    if isinstance(ir, ArithIr):
        op = "//" if ir.op == "/" else ir.op
        return f"({_gen(ir.left)} {op} {_gen(ir.right)})"
    if isinstance(ir, ReduceIr):
        fn = "max" if ir.op == "MAX" else "min"
        return f"{fn}({', '.join(_gen(item) for item in ir.items)})"
    if isinstance(ir, KthIr):
        items = ", ".join(_gen(item) for item in ir.items)
        largest = ir.op == "KTH_MAX"
        return f"_kth({_gen(ir.k)}, ({items},), {largest})"
    raise DslSemanticError(f"cannot generate code for {type(ir).__name__}")


class CompiledPredicate:
    """A ready-to-evaluate predicate.

    ``evaluate(table)`` returns the stability frontier: the highest
    sequence number for which the consistency model holds, given the
    current acknowledgment ``table`` (``table[node][type] -> seq``).
    """

    __slots__ = (
        "source",
        "ir",
        "python_source",
        "compile_time_s",
        "_fn",
        "leaves",
        "cells",
        "nodes",
        "shortcircuit",
    )

    def __init__(
        self,
        source: str,
        ir: Ir,
        python_source: str,
        fn,
        compile_time_s: float,
    ):
        self.source = source
        self.ir = ir
        self.python_source = python_source
        self.compile_time_s = compile_time_s
        self._fn = fn
        self.leaves = tuple(ir_leaves(ir))
        # Precomputed dependency sets: the distinct (node, type_id) table
        # cells this predicate reads, and the nodes they live on.  The
        # frontier engine keys its reverse dependency index on these, and
        # ``depends_on`` becomes a set lookup instead of a leaf scan.
        self.cells = frozenset((leaf.node, leaf.type_id) for leaf in self.leaves)
        self.nodes = frozenset(node for node, _type_id in self.cells)
        self.shortcircuit = classify_shortcircuit(ir)

    def evaluate(self, table: Table) -> int:
        try:
            return self._fn(table)
        except IndexError as exc:
            raise DslEvaluationError(
                f"ACK table too small for predicate {self.source!r}"
            ) from exc

    __call__ = evaluate

    def depends_on(self, node: int, type_id: Optional[int] = None) -> bool:
        """Whether this predicate reads an ACK cell of ``node``."""
        if type_id is None:
            return node in self.nodes
        return (node, type_id) in self.cells

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledPredicate {self.source!r}>"


class PredicateCompiler:
    """Front end + JIT back end with a compilation cache.

    The paper: "these DSL modules are compiled on first use, then invoked
    at low overhead as needed."  The cache keys on the predicate source;
    a second registration of the same text reuses the compiled function.
    """

    def __init__(self, ctx: DslContext):
        self.ctx = ctx
        self._cache: Dict[str, CompiledPredicate] = {}
        self.compilations = 0
        self.cache_hits = 0

    def compile(self, source: str) -> CompiledPredicate:
        """Parse, expand, type-check and JIT ``source``."""
        cached = self._cache.get(source)
        if cached is not None:
            self.cache_hits += 1
            return cached
        started = time.perf_counter()
        ast = parse(source)
        ir = expand(ast, self.ctx)
        python_source = generate_source(ir)
        namespace = {"_kth": _kth}
        code = compile(python_source, "<stabilizer-dsl>", "exec")
        exec(code, namespace)  # noqa: S102 - the source is generated above
        elapsed = time.perf_counter() - started
        predicate = CompiledPredicate(
            source, ir, python_source, namespace["_predicate"], elapsed
        )
        self._cache[source] = predicate
        self.compilations += 1
        return predicate

    def invalidate(self) -> None:
        """Drop the cache (used when the topology context changes)."""
        self._cache.clear()
