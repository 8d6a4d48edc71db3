"""Tests for the Table III / Section IV predicate generators."""

import pytest

from repro.dsl.compiler import PredicateCompiler
from repro.dsl.semantics import DslContext
from repro.dsl.stdlib import (
    majority_regions,
    one_region,
    remote_groups,
    standard_predicates,
)
from repro.errors import DslSemanticError

NODES = ["nc1", "nc2", "nv1", "nv2", "nv3", "nv4", "oregon1", "ohio1"]
GROUPS = {
    "North California": ["nc1", "nc2"],
    "North Virginia": ["nv1", "nv2", "nv3", "nv4"],
    "Oregon": ["oregon1"],
    "Ohio": ["ohio1"],
}


def compile_all(local="nc1"):
    ctx = DslContext(NODES, GROUPS, local)
    comp = PredicateCompiler(ctx)
    return {
        name: comp.compile(source)
        for name, source in standard_predicates(GROUPS, local).items()
    }


def table(received):
    return [[r, 0] for r in received]


def test_remote_groups_excludes_local():
    assert remote_groups(GROUPS, "nc1") == ["North Virginia", "Oregon", "Ohio"]
    assert remote_groups(GROUPS, "oregon1") == [
        "North California",
        "North Virginia",
        "Ohio",
    ]


def test_remote_groups_requires_membership():
    with pytest.raises(DslSemanticError):
        remote_groups(GROUPS, "stranger")


def test_majority_regions_matches_paper_k():
    # Three remote regions -> KTH_MAX(2, ...), exactly Table III.
    source = majority_regions(GROUPS, "nc1")
    assert source.startswith("KTH_MAX(2, ")
    assert "North_Virginia" in source and "Oregon" in source and "Ohio" in source


def test_one_region_ignores_local_region():
    source = one_region(GROUPS, "nc1")
    assert "North_California" not in source


def test_all_six_compile():
    predicates = compile_all()
    assert set(predicates) == {
        "OneRegion",
        "MajorityRegions",
        "AllRegions",
        "OneWNode",
        "MajorityWNodes",
        "AllWNodes",
    }


def test_predicate_ordering_invariant():
    """For any table: AllX <= MajorityX <= OneX (stronger is never ahead)."""
    predicates = compile_all()
    received = [100, 90, 10, 20, 30, 40, 70, 55]
    t = table(received)
    assert (
        predicates["AllRegions"].evaluate(t)
        <= predicates["MajorityRegions"].evaluate(t)
        <= predicates["OneRegion"].evaluate(t)
    )
    assert (
        predicates["AllWNodes"].evaluate(t)
        <= predicates["MajorityWNodes"].evaluate(t)
        <= predicates["OneWNode"].evaluate(t)
    )


def test_region_semantics_one_ack_per_region_suffices():
    predicates = compile_all()
    # Only one NV node and the Ohio node acked message 7.
    received = [7, 0, 7, 0, 0, 0, 0, 7]
    t = table(received)
    assert predicates["OneRegion"].evaluate(t) == 7
    assert predicates["MajorityRegions"].evaluate(t) == 7  # NV + Ohio = 2 of 3
    assert predicates["AllRegions"].evaluate(t) == 0  # Oregon saw nothing
    assert predicates["MajorityWNodes"].evaluate(t) == 0  # 2 remote acks < 5


def test_wnode_majority_needs_five_of_seven_remote():
    predicates = compile_all()
    received = [9, 9, 9, 9, 9, 0, 0, 0]  # sender + 4 remote acks
    assert predicates["MajorityWNodes"].evaluate(table(received)) == 0
    received = [9, 9, 9, 9, 9, 9, 0, 0]  # sender + 5 remote acks
    assert predicates["MajorityWNodes"].evaluate(table(received)) == 9


def test_quorum_predicates_overlap():
    """Nw + Nr > N: a read quorum always intersects a write quorum."""
    ctx = DslContext(NODES, GROUPS, "nc1")
    comp = PredicateCompiler(ctx)
    # Section IV-B's write and read predicates.
    write = comp.compile("KTH_MIN(SIZEOF($ALLWNODES)/2 + 1, $ALLWNODES)")
    comp.compile("KTH_MIN(SIZEOF($ALLWNODES)/2, $ALLWNODES)")
    n = len(NODES)
    # Derive the implied quorum sizes from KTH_MIN semantics:
    # KTH_MIN(k, all) >= s  iff at least n-k+1 nodes acked >= s.
    write_quorum = n - (n // 2 + 1) + 1
    read_quorum = n - (n // 2) + 1
    assert write_quorum + read_quorum > n
    # Behavioural check: exactly `write_quorum` acks advance the write
    # frontier, one fewer does not.
    acked = [5] * write_quorum + [0] * (n - write_quorum)
    assert write.evaluate(table(acked)) == 5
    acked = [5] * (write_quorum - 1) + [0] * (n - write_quorum + 1)
    assert write.evaluate(table(acked)) == 0


def test_az_geo_replicated_example():
    ctx = DslContext(NODES, GROUPS, "nc1")
    comp = PredicateCompiler(ctx)
    # Section IV-A: fully replicated inside the sender's availability zone
    # and present at one site outside it.
    predicate = comp.compile(
        "MIN(MIN($MYAZWNODES - $MYWNODE), MAX($ALLWNODES - $MYAZWNODES))"
    )
    # AZ peer (nc2) acked 4; one remote (ohio1) acked 6 -> frontier 4.
    received = [9, 4, 0, 0, 0, 0, 0, 6]
    assert predicate.evaluate(table(received)) == 4
    # AZ peer behind: frontier limited by it even with many remote acks.
    received = [9, 2, 9, 9, 9, 9, 9, 9]
    assert predicate.evaluate(table(received)) == 2
    # No remote ack at all: frontier 0.
    received = [9, 8, 0, 0, 0, 0, 0, 0]
    assert predicate.evaluate(table(received)) == 0


def test_all_wnodes_exclude_crashed_nodes():
    """The Section III-E adjustment: drop suspected nodes from the set."""
    from repro.dsl.stdlib import all_wnodes

    ctx = DslContext(NODES, GROUPS, "nc1")
    comp = PredicateCompiler(ctx)
    adjusted = comp.compile("MIN($ALLWNODES - $MYWNODE - $WNODE_ohio1 - $WNODE_oregon1)")
    # Everyone but the excluded pair acked 9; unadjusted MIN would be 0.
    received = [9, 9, 9, 9, 9, 9, 0, 0]
    assert adjusted.evaluate(table(received)) == 9
    plain = comp.compile(all_wnodes())
    assert plain.evaluate(table(received)) == 0


def test_standard_predicates_for_other_locals():
    predicates = compile_all(local="ohio1")
    received = [3, 3, 3, 3, 3, 3, 3, 9]
    assert predicates["AllWNodes"].evaluate(table(received)) == 3
