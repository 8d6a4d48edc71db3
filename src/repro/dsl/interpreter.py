"""Tree-walking evaluator over the predicate IR.

This is the non-JIT baseline: semantically identical to the compiled form,
used (a) as the differential-testing oracle for the compiler and (b) as
the ablation measured by ``repro jit``.
"""

from __future__ import annotations

from typing import Sequence

from repro.dsl.semantics import ArithIr, Const, Ir, KthIr, Leaf, ReduceIr
from repro.errors import DslEvaluationError, DslSemanticError


def evaluate_ir(ir: Ir, table: Sequence[Sequence[int]]) -> int:
    """Evaluate ``ir`` against the acknowledgment ``table``."""
    if isinstance(ir, Leaf):
        try:
            return table[ir.node][ir.type_id]
        except IndexError as exc:
            raise DslEvaluationError(
                f"ACK table too small for leaf ({ir.node}, {ir.type_id})"
            ) from exc
    if isinstance(ir, Const):
        return ir.value
    if isinstance(ir, ArithIr):
        left = evaluate_ir(ir.left, table)
        right = evaluate_ir(ir.right, table)
        if ir.op == "+":
            return left + right
        if ir.op == "-":
            return left - right
        if ir.op == "*":
            return left * right
        if ir.op == "/":
            if right == 0:
                raise DslEvaluationError("division by zero at evaluation time")
            return left // right
        raise DslSemanticError(f"unknown arithmetic operator {ir.op!r}")
    if isinstance(ir, ReduceIr):
        values = [evaluate_ir(item, table) for item in ir.items]
        return max(values) if ir.op == "MAX" else min(values)
    if isinstance(ir, KthIr):
        k = evaluate_ir(ir.k, table)
        values = [evaluate_ir(item, table) for item in ir.items]
        if not 1 <= k <= len(values):
            raise DslEvaluationError(
                f"K parameter {k} outside 1..{len(values)} operands"
            )
        return sorted(values, reverse=(ir.op == "KTH_MAX"))[k - 1]
    raise DslSemanticError(f"cannot evaluate {type(ir).__name__}")
