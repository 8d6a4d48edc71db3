"""The stability-frontier predicate DSL (the paper's Section III-C).

A predicate is a small expression over a table of per-node, per-type
acknowledged sequence numbers::

    MIN(MIN($MYAZWNODES - $MYWNODE), MAX($ALLWNODES - $MYAZWNODES))
    KTH_MIN(SIZEOF($ALLWNODES)/2 + 1, $ALLWNODES)
    ($MYAZWNODES - $MYWNODE).verified

The pipeline mirrors the paper's Flex + Bison + libgccjit stack:

1. :mod:`repro.dsl.lexer` — hand-written scanner (the Flex stage);
2. :mod:`repro.dsl.parser` — recursive-descent parser to an AST (Bison);
3. :mod:`repro.dsl.semantics` — macro/variable expansion against the
   deployment topology, type checking, constant folding; produces a typed
   IR whose leaves are concrete ``(node, ack-type)`` table cells;
4. :mod:`repro.dsl.compiler` — the JIT: generates Python source from the IR
   and compiles it to bytecode once, so evaluation on the critical path is
   a single function call (libgccjit's role);
5. :mod:`repro.dsl.interpreter` — a tree-walking evaluator over the same
   IR, kept as the non-JIT ablation baseline.

:mod:`repro.dsl.stdlib` generates the paper's six standard predicates
(Table III) for any topology.
"""

from repro.dsl.ast import (
    Arith,
    Call,
    DollarRef,
    IntLiteral,
    Node,
    SizeOf,
    Suffixed,
)
from repro.dsl.compiler import CompiledPredicate, PredicateCompiler
from repro.dsl.format import describe, format_ast, format_ir
from repro.dsl.interpreter import evaluate_ir
from repro.dsl.lexer import Token, tokenize
from repro.dsl.parser import parse
from repro.dsl.semantics import DslContext, expand
from repro.dsl.stdlib import shard_standard_predicates, standard_predicates

__all__ = [
    "Arith",
    "Call",
    "CompiledPredicate",
    "DollarRef",
    "DslContext",
    "IntLiteral",
    "Node",
    "PredicateCompiler",
    "SizeOf",
    "Suffixed",
    "Token",
    "describe",
    "evaluate_ir",
    "expand",
    "format_ast",
    "format_ir",
    "parse",
    "shard_standard_predicates",
    "standard_predicates",
    "tokenize",
]
