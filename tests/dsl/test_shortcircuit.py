"""The algebraic short-circuit classes and the lemma behind them.

``classify_shortcircuit`` sorts every arithmetic-free tree of ``MIN`` /
``MAX`` / ``KTH_*`` over cells and constants into ``"max"`` (a tree of
``MAX`` alone) or ``"witness"`` (any other).  The frontier engine leans on
two facts about a monotone single-cell raise ``t -> t'`` of such an ``f``:

- whatever the tree, raising a cell whose value was already above ``f(t)``
  leaves ``f`` unchanged (``[f > v]`` is a monotone Boolean function of
  the bits ``[t_c > v]``, and no bit at ``v = f(t)`` moves);
- for a tree of ``MAX``, ``f(t') = max(f(t), t'_c)``.

Both are checked here exhaustively at small scope: every such tree up to
depth 2 over three cells and one constant, every table with cell values
0..3, every single-cell raise.
"""

import itertools

import pytest

from repro.dsl.compiler import (
    PredicateCompiler,
    _kth,
    classify_shortcircuit,
    generate_source,
)
from repro.dsl.semantics import Const, DslContext, KthIr, Leaf, ReduceIr
from repro.dsl.stdlib import standard_predicates

CELLS = 3
VALUES = range(4)
CONSTANT = 2
#: Every table ``t`` as its three cell values, in a fixed order.
TABLES = list(itertools.product(VALUES, repeat=CELLS))
_INDEX = {t: i for i, t in enumerate(TABLES)}
#: Every single-cell raise: (table, raised table, cell, its old value, new value).
RAISES = [
    (i, _INDEX[t[:c] + (new,) + t[c + 1:]], c, t[c], new)
    for i, t in enumerate(TABLES)
    for c in range(CELLS)
    for new in VALUES
    if new > t[c]
]

#: A tree is ``(ir, its value per table, whether it is a tree of MAX, the
#: cells it reads)``; the leaves first.
LEAVES = [
    (Leaf(c, 0), tuple(t[c] for t in TABLES), True, {c}) for c in range(CELLS)
]
LEAVES.append((Const(CONSTANT), (CONSTANT,) * len(TABLES), True, set()))


def _node(op, k, children):
    """The tree ``op`` (with K ``k``) over ``children``, each a tree."""
    irs = [child[0] for child in children]
    columns = list(zip(*(child[1] for child in children)))
    cells = set().union(*(child[3] for child in children))
    if op == "MIN":
        return ReduceIr(op, irs), tuple(map(min, columns)), False, cells
    if op == "MAX":
        is_max = all(child[2] for child in children)
        return ReduceIr(op, irs), tuple(map(max, columns)), is_max, cells
    if op == "KTH_MAX":
        values = tuple(sorted(column)[-k] for column in columns)
    else:
        values = tuple(sorted(column)[k - 1] for column in columns)
    return KthIr(op, Const(k), irs), values, False, cells


def _trees(items, sizes):
    """Every node over a combination of ``items`` of one of ``sizes``:
    MIN, MAX, and each KTH_* whose K is neither end (those are MIN / MAX)."""
    for size in sizes:
        for children in itertools.combinations(items, size):
            yield _node("MIN", None, children)
            yield _node("MAX", None, children)
            for k in range(2, size):
                yield _node("KTH_MAX", k, children)
                yield _node("KTH_MIN", k, children)


@pytest.fixture(scope="module")
def trees():
    """Every arithmetic-free tree up to depth 2 over the three cells and
    the constant (a depth-2 tree has at least one depth-1 child)."""
    depth1 = list(_trees(LEAVES, sizes=(2, 3, 4)))
    return LEAVES + depth1 + list(_trees(LEAVES + depth1, sizes=(2, 3)))


def test_the_lemma_holds_for_every_small_tree_and_raise(trees):
    assert len(trees) > 10_000
    witness = 0
    for ir, values, is_max, cells in trees:
        assert classify_shortcircuit(ir) == ("max" if is_max else "witness"), ir
        witness += not is_max
        # A raise of a cell that was above f leaves f where it was ...
        moved = [
            (TABLES[t], TABLES[raised])
            for t, raised, _cell, old, _new in RAISES
            if old > values[t] and values[raised] != values[t]
        ]
        assert not moved, (ir, moved[:3])
        if is_max:
            # ... and a tree of MAX is exactly the max with a cell it reads.
            wrong = [
                (TABLES[t], TABLES[raised])
                for t, raised, cell, _old, new in RAISES
                if cell in cells and values[raised] != max(values[t], new)
            ]
            assert not wrong, (ir, wrong[:3])
    assert 0 < witness < len(trees)


def test_the_enumeration_evaluates_as_the_generated_code_does(trees):
    """The value tables above are the compiled predicate's values."""
    namespace = {}
    for number, (ir, values, _is_max, _cells) in enumerate(trees):
        if number % 97:
            continue
        exec(generate_source(ir), {"_kth": _kth}, namespace)
        fn = namespace["_predicate"]
        assert [fn([[v] for v in t]) for t in TABLES] == list(values), ir


NODES = ["a", "b", "c", "d", "e"]
GROUPS = {"east": ["a", "b"], "west": ["c", "d"], "south": ["e"]}


def classify(source):
    compiler = PredicateCompiler(DslContext(NODES, GROUPS, "a"))
    return compiler.compile(source).shortcircuit


@pytest.mark.parametrize(
    "source, kind",
    [
        ("MAX($ALLWNODES)", "max"),
        ("MAX($WNODE_b)", "max"),
        ("MAX(MAX($AZ_west), MAX($WNODE_b, 3))", "max"),
        ("MIN($ALLWNODES)", "witness"),
        ("KTH_MAX(2, $ALLWNODES)", "witness"),
        ("MAX(MIN($AZ_east), MIN($AZ_west))", "witness"),
        ("MIN(MAX($AZ_west), KTH_MIN(2, $WNODE_b, $WNODE_e.persisted, 4))", "witness"),
        # SIZEOF(...)/2 + 1 folds to a constant K: classified.
        ("KTH_MAX(SIZEOF($ALLWNODES)/2 + 1, ($ALLWNODES - $MYWNODE))", "witness"),
        # Arithmetic anywhere, or a K read off the table: always evaluated.
        ("MAX(MIN($ALLWNODES) + 1, 1)", None),
        ("MIN(MAX($AZ_west), MAX($AZ_east) - 1)", None),
        ("KTH_MAX(MIN($WNODE_b, 2), $ALLWNODES)", None),
    ],
)
def test_classification(source, kind):
    assert classify(source) == kind


def test_the_standard_predicates_are_all_short_circuited():
    kinds = {
        key: classify(source)
        for key, source in standard_predicates(GROUPS, "a").items()
    }
    assert kinds == {
        "OneRegion": "max",
        "MajorityRegions": "witness",
        "AllRegions": "witness",
        "OneWNode": "max",
        "MajorityWNodes": "witness",
        "AllWNodes": "witness",
    }
