"""Tests for predicate formatting.

Two predicates are structurally equal when their expanded IR renders to
the same :func:`format_ir` text: that is sound (equal IR means identical
behaviour) but not complete (semantically equal predicates can differ
structurally).
"""

from hypothesis import given, settings

from repro.dsl.format import describe, format_ast, format_ir
from repro.dsl.parser import parse
from repro.dsl.semantics import DslContext, expand

NODES = ["a", "b", "c", "d"]
GROUPS = {"east": ["a", "b"], "west": ["c", "d"]}
CTX = DslContext(NODES, GROUPS, "a", types={"verified": 2})


def canonicalize(source):
    return format_ast(parse(source))


def equivalent(source_a, source_b, ctx):
    return format_ir(expand(parse(source_a), ctx), ctx) == format_ir(
        expand(parse(source_b), ctx), ctx
    )


def test_canonicalize_normalizes_spelling():
    assert canonicalize("max( $1 ,$2 )") == "MAX($1, $2)"
    assert canonicalize("KTH MAX(2,$ALLWNODES)") == "KTH_MAX(2, $ALLWNODES)"


def test_canonicalize_round_trips():
    sources = [
        "MIN(MIN($MYAZWNODES - $MYWNODE), MAX($ALLWNODES - $MYAZWNODES))",
        "KTH_MIN(SIZEOF($ALLWNODES) / 2 + 1, $ALLWNODES)",
        "MIN(($ALLWNODES - $MYWNODE).verified)",
        "MAX($3.persisted, MIN($AZ_west))",
    ]
    for source in sources:
        canonical = canonicalize(source)
        assert canonicalize(canonical) == canonical  # fixed point
        # And the canonical text still parses to an equal AST.
        assert format_ast(parse(canonical)) == canonical


def test_format_ir_with_names():
    ir = expand(parse("MIN($AZ_west)"), CTX)
    assert format_ir(ir, CTX) == "MIN(ack[c].received, ack[d].received)"
    ir = expand(parse("MAX($2.persisted, $3.verified)"), CTX)
    assert format_ir(ir, CTX) == "MAX(ack[b].persisted, ack[c].verified)"


def test_format_ir_kth_and_arith():
    ir = expand(parse("KTH_MAX(2, $ALLWNODES)"), CTX)
    text = format_ir(ir, CTX)
    assert text.startswith("KTH_MAX(k=2; ")


def test_describe_shows_both_forms():
    text = describe("MAX($ALLWNODES - $MYWNODE)", CTX)
    assert "=>" in text
    assert "MAX($ALLWNODES - $MYWNODE)" in text
    assert "ack[b].received" in text


def test_equivalence_detects_macro_identities():
    # The macro spelling and the explicit node list expand identically.
    assert equivalent(
        "MAX($ALLWNODES - $MYWNODE)", "MAX($2, $3, $4)", CTX
    )
    assert equivalent(
        "KTH_MIN(SIZEOF($ALLWNODES)/2 + 1, $ALLWNODES)",
        "KTH_MIN(3, $ALLWNODES)",
        CTX,
    )


def test_equivalence_is_sound_not_complete():
    assert not equivalent("MAX($1, $2)", "MAX($2, $1)", CTX)
    assert not equivalent("MAX($1)", "MIN($1, $2)", CTX)
    assert not equivalent("MAX($1, $2)", "KTH_MAX(2, $1, $2)", CTX)


def test_kth_one_equivalence_via_simplification():
    # The compiler simplifies KTH_MAX(1, xs) to MAX(xs) at expansion time.
    assert equivalent("KTH_MAX(1, $AZ_east)", "MAX($AZ_east)", CTX)


@given(source=__import__("tests.dsl.test_fuzz", fromlist=["PREDICATES"]).PREDICATES)
@settings(max_examples=60, deadline=None)
def test_fuzz_canonical_form_preserves_semantics(source):
    """Canonicalizing never changes what a predicate computes."""
    ctx = __import__("tests.dsl.test_fuzz", fromlist=["CTX"]).CTX
    assert equivalent(source, canonicalize(source), ctx)