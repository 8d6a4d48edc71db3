"""Formatting of predicates.

Two tools that keep predicates legible once macros, runtime rewrites
(auto-adjustment, broker-managed predicates) and JIT compilation are in
play:

- :func:`format_ast` — canonical source text for a parsed predicate
  (normalized whitespace/case; round-trips through the parser);
- :func:`format_ir` — the *expanded* form: macros resolved to concrete
  node names, suffixes explicit — what the predicate actually reads.
"""

from __future__ import annotations

from repro.dsl.ast import (
    Arith,
    Call,
    DollarRef,
    IntLiteral,
    Node,
    Paren,
    SizeOf,
    Suffixed,
)
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
)
from repro.errors import DslSemanticError


# ---------------------------------------------------------------------------
# Canonical source.
# ---------------------------------------------------------------------------


def format_ast(node: Node) -> str:
    """Render an AST back to canonical predicate source."""
    if isinstance(node, IntLiteral):
        return str(node.value)
    if isinstance(node, DollarRef):
        return f"${node.text}"
    if isinstance(node, Suffixed):
        return f"{format_ast(node.operand)}.{node.type_name}"
    if isinstance(node, Paren):
        return f"({format_ast(node.inner)})"
    if isinstance(node, SizeOf):
        return f"SIZEOF({format_ast(node.operand)})"
    if isinstance(node, Arith):
        return f"{format_ast(node.left)} {node.op} {format_ast(node.right)}"
    if isinstance(node, Call):
        args = ", ".join(format_ast(arg) for arg in node.args)
        return f"{node.op}({args})"
    raise DslSemanticError(f"cannot format {type(node).__name__}")


# ---------------------------------------------------------------------------
# Expanded IR.
# ---------------------------------------------------------------------------


def format_ir(ir: Ir, ctx: DslContext) -> str:
    """Render expanded IR, with the context's node and type names."""
    type_names = {type_id: name for name, type_id in ctx.types.items()}

    def walk(item: Ir) -> str:
        if isinstance(item, Leaf):
            return f"ack[{ctx.node_names[item.node]}].{type_names[item.type_id]}"
        if isinstance(item, Const):
            return str(item.value)
        if isinstance(item, ArithIr):
            return f"({walk(item.left)} {item.op} {walk(item.right)})"
        if isinstance(item, ReduceIr):
            inner = ", ".join(walk(x) for x in item.items)
            return f"{item.op}({inner})"
        if isinstance(item, KthIr):
            inner = ", ".join(walk(x) for x in item.items)
            return f"{item.op}(k={walk(item.k)}; {inner})"
        raise DslSemanticError(f"cannot format {type(item).__name__}")

    return walk(ir)


def describe(source: str, ctx: DslContext) -> str:
    """One predicate, both forms — for logs and debugging."""
    ast = parse(source)
    return f"{format_ast(ast)}  =>  {format_ir(expand(ast, ctx), ctx)}"
