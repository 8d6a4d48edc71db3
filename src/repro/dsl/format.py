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

from typing import Optional, Sequence

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


def format_ir(
    ir: Ir,
    node_names: Optional[Sequence[str]] = None,
    type_names: Optional[Sequence[str]] = None,
) -> str:
    """Render expanded IR; names resolve when the context vocab is given."""

    def leaf(item: Leaf) -> str:
        node = (
            node_names[item.node]
            if node_names and item.node < len(node_names)
            else f"#{item.node + 1}"
        )
        type_name = (
            type_names[item.type_id]
            if type_names and item.type_id < len(type_names)
            else f"type{item.type_id}"
        )
        return f"ack[{node}].{type_name}"

    def walk(item: Ir) -> str:
        if isinstance(item, Leaf):
            return leaf(item)
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
    ir = expand(ast, ctx)
    type_names = [
        name for name, _id in sorted(ctx.types.items(), key=lambda kv: kv[1])
    ]
    expanded = format_ir(ir, node_names=ctx.node_names, type_names=type_names)
    return f"{format_ast(ast)}  =>  {expanded}"
