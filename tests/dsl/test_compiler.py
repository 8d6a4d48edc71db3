"""Compiler tests: generated code, caching, and JIT-vs-interpreter parity."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl.compiler import PredicateCompiler, _kth, generate_source
from repro.dsl.interpreter import evaluate_ir
from repro.dsl.parser import parse
from repro.dsl.semantics import DslContext, expand
from repro.errors import DslEvaluationError

NODES = ["nc1", "nc2", "nv1", "nv2", "nv3", "nv4", "oregon1", "ohio1"]
GROUPS = {
    "North California": ["nc1", "nc2"],
    "North Virginia": ["nv1", "nv2", "nv3", "nv4"],
    "Oregon": ["oregon1"],
    "Ohio": ["ohio1"],
}


def compiler(local="nc1", types=None):
    return PredicateCompiler(DslContext(NODES, GROUPS, local, types=types))


def table(received, persisted=None):
    persisted = persisted or [0] * len(received)
    return [[r, p] for r, p in zip(received, persisted)]


# Fig. 1's example table: the paper says MAX($ALLWNODES-$MYWNODE)
# evaluated at node 1 returns 28.
FIG1_RECEIVED = [33, 25, 19, 21, 23, 28]


def fig1_compiler():
    nodes = [f"n{i}" for i in range(1, 7)]
    groups = {"az": nodes}
    return PredicateCompiler(DslContext(nodes, groups, "n1"))


def test_fig1_example_returns_28():
    predicate = fig1_compiler().compile("MAX($ALLWNODES - $MYWNODE)")
    assert predicate.evaluate(table(FIG1_RECEIVED)) == 28


def test_min_allwnodes_is_global_floor():
    predicate = fig1_compiler().compile("MIN($ALLWNODES)")
    assert predicate.evaluate(table(FIG1_RECEIVED)) == 19


def test_majority_kth_min():
    predicate = fig1_compiler().compile(
        "KTH_MIN(SIZEOF($ALLWNODES)/2 + 1, $ALLWNODES)"
    )
    # 4th smallest of [33, 25, 19, 21, 23, 28] -> 25: a majority (>= 3 of
    # 6 non-sender... including sender) has acked 25 and everything below.
    assert predicate.evaluate(table(FIG1_RECEIVED)) == 25


def test_generated_source_is_a_single_expression():
    ctx = DslContext(NODES, GROUPS, "nc1")
    ir = expand(parse("MIN(MAX($AZ_Oregon), MAX($AZ_Ohio))"), ctx)
    source = generate_source(ir)
    assert source == "def _predicate(t):\n    return min(t[6][0], t[7][0])\n"


def test_kth_codegen_uses_helper():
    ctx = DslContext(NODES, GROUPS, "nc1")
    ir = expand(parse("KTH_MAX(2, $1, $2, $3)"), ctx)
    assert "_kth(2, (t[0][0], t[1][0], t[2][0],), True)" in generate_source(ir)


def test_cache_hits_for_identical_source():
    comp = compiler()
    a = comp.compile("MAX($ALLWNODES)")
    b = comp.compile("MAX($ALLWNODES)")
    assert a is b
    assert comp.compilations == 1
    assert comp.cache_hits == 1


def test_invalidate_clears_cache():
    comp = compiler()
    a = comp.compile("MAX($ALLWNODES)")
    comp.invalidate()
    b = comp.compile("MAX($ALLWNODES)")
    assert a is not b
    assert comp.compilations == 2


def test_compile_time_is_recorded():
    predicate = compiler().compile("MAX($ALLWNODES)")
    assert predicate.compile_time_s > 0


def test_depends_on_reports_leaf_nodes():
    predicate = compiler().compile("MAX($AZ_Oregon, $AZ_Ohio)")
    assert predicate.depends_on(6)
    assert predicate.depends_on(7)
    assert not predicate.depends_on(0)


def test_depends_on_with_type_filter():
    predicate = compiler().compile("MAX($2.persisted)")
    assert predicate.depends_on(1, 1)
    assert not predicate.depends_on(1, 0)


def test_evaluate_on_short_table_raises_cleanly():
    predicate = compiler().compile("MAX($8)")
    with pytest.raises(DslEvaluationError, match="too small"):
        predicate.evaluate([[0, 0]])


def test_callable_sugar():
    predicate = fig1_compiler().compile("MAX($2)")
    assert predicate(table(FIG1_RECEIVED)) == 25


def test_persisted_and_received_columns_are_independent():
    comp = compiler()
    received = comp.compile("MIN($ALLWNODES)")
    persisted = comp.compile("MIN($ALLWNODES.persisted)")
    t = table([5] * 8, [3] * 8)
    assert received.evaluate(t) == 5
    assert persisted.evaluate(t) == 3


def test_runtime_k_parameter_evaluates():
    """K can be a nested predicate, resolved at evaluation time."""
    comp = compiler()
    predicate = comp.compile("KTH_MAX(MIN($1, 3), $ALLWNODES)")
    # MIN($1, 3): with node 1's ack at 2, k = 2 -> 2nd largest.
    t = table([2, 10, 20, 30, 40, 50, 60, 70])
    assert predicate.evaluate(t) == 60
    # With node 1 at 1, k = 1 -> the maximum.
    t = table([1, 10, 20, 30, 40, 50, 60, 70])
    assert predicate.evaluate(t) == 70
    from repro.dsl.interpreter import evaluate_ir

    assert evaluate_ir(predicate.ir, t) == 70


def test_runtime_k_out_of_range_raises_at_evaluation():
    comp = compiler()
    predicate = comp.compile("KTH_MAX(MAX($1), $ALLWNODES)")
    t = table([99] + [0] * 7)  # k = 99 >> 8 operands
    with pytest.raises(DslEvaluationError, match="outside"):
        predicate.evaluate(t)
    from repro.dsl.interpreter import evaluate_ir

    with pytest.raises(DslEvaluationError, match="outside"):
        evaluate_ir(predicate.ir, t)
    t = table([0] * 8)  # k = 0 is also invalid
    with pytest.raises(DslEvaluationError, match="outside"):
        predicate.evaluate(t)


# ---------------------------------------------------------------------------
# Differential testing: the JIT and the interpreter must agree everywhere.
# ---------------------------------------------------------------------------

PAPER_PREDICATES = [
    "MAX(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
    "KTH_MAX(2, MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
    "MIN(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
    "MAX($ALLWNODES - $MYWNODE)",
    "KTH_MAX(SIZEOF($ALLWNODES)/2 + 1, ($ALLWNODES - $MYWNODE))",
    "MIN($ALLWNODES - $MYWNODE)",
    "MIN(MIN($MYAZWNODES - $MYWNODE), MAX($ALLWNODES - $MYAZWNODES))",
    "KTH_MIN(SIZEOF($ALLWNODES)/2 + 1, $ALLWNODES)",
    "KTH_MIN(SIZEOF($ALLWNODES)/2, $ALLWNODES)",
    "MIN(MAX($1, $2), KTH_MAX(3, $ALLWNODES), MAX($AZ_Ohio.persisted))",
]


@pytest.mark.parametrize("source", PAPER_PREDICATES)
@given(
    received=st.lists(st.integers(0, 10**6), min_size=8, max_size=8),
    persisted=st.lists(st.integers(0, 10**6), min_size=8, max_size=8),
)
@settings(max_examples=25, deadline=None)
def test_jit_matches_interpreter(source, received, persisted):
    comp = compiler()
    predicate = comp.compile(source)
    t = table(received, persisted)
    assert predicate.evaluate(t) == evaluate_ir(predicate.ir, t)


@given(
    received=st.lists(st.integers(0, 100), min_size=8, max_size=8),
    k=st.integers(1, 8),
)
@settings(max_examples=50, deadline=None)
def test_kth_max_counts_acks(received, k):
    """KTH_MAX(k, all) == s  <=>  at least k nodes acked >= s."""
    comp = compiler()
    predicate = comp.compile(f"KTH_MAX({k}, $ALLWNODES)")
    frontier = predicate.evaluate(table(received))
    at_least = sum(1 for r in received if r >= frontier)
    assert at_least >= k
    # And the frontier is maximal: one higher would break the property.
    above = sum(1 for r in received if r >= frontier + 1)
    assert above < k


def _kth_by_heap(k, values, largest):
    """The definition ``_kth`` replaced: ``heapq`` selection."""
    if largest:
        return heapq.nlargest(k, values)[-1]
    return heapq.nsmallest(k, values)[-1]


@given(
    values=st.lists(st.integers(0, 50), min_size=1, max_size=12),
    k=st.integers(-1, 14),
    largest=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_kth_matches_the_heap_definition(values, k, largest):
    """``sorted(values)[-k]`` / ``[k - 1]`` is the same order statistic as
    the heap selection it replaced — duplicates included — and rejects
    the same out-of-range ``k``."""
    values = tuple(values)
    if 1 <= k <= len(values):
        assert _kth(k, values, largest) == _kth_by_heap(k, values, largest)
    else:
        with pytest.raises(DslEvaluationError, match="outside 1"):
            _kth(k, values, largest)
