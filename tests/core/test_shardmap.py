"""ShardMap edge cases: the consistent key→shard→owner-set assignment.

The properties partial replication leans on, pinned individually:

- the single-shard degenerate map is full replication (everyone owns
  shard 0) and routes every key there;
- ``shard_of`` reads nothing but ``shard_count``, so key routing is
  stable across any membership change;
- rendezvous owner sets only move when an *owner* leaves — removing a
  non-owner never disturbs a shard, and removing an owner keeps the
  surviving owners in place;
- explicit owner mappings override rendezvous entirely and survive a
  ``to_dict`` round-trip (snapshot v4 carries exactly that dict).
"""

import pytest

from repro.core.membership import ShardMap
from repro.errors import ConfigError

NODES = [f"n{i}" for i in range(8)]


# ---------------------------------------------------------------------------
# Degenerate configurations.
# ---------------------------------------------------------------------------


def test_single_shard_full_replication_is_the_default():
    shard_map = ShardMap(NODES)
    assert shard_map.shard_count == 1
    assert shard_map.owners(0) == tuple(NODES)
    for key in ("alpha", 42, ("tuple", "key")):
        assert shard_map.shard_of(key) == 0
    assert shard_map.owned_shards("n3") == (0,)
    assert shard_map.owners_per_shard() == len(NODES)


def test_replication_none_means_every_node_owns_every_shard():
    shard_map = ShardMap(NODES, shard_count=16)
    for shard in range(16):
        assert shard_map.owners(shard) == tuple(NODES)
    # The degenerate map is what the equivalence tests compare against
    # the unsharded engine: nothing is partial about it.
    for name in NODES:
        assert shard_map.owned_shards(name) == tuple(range(16))


def test_single_node_deployment():
    shard_map = ShardMap(["solo"], shard_count=4, replication=1)
    for shard in range(4):
        assert shard_map.owners(shard) == ("solo",)
        assert shard_map.primary(shard) == "solo"


# ---------------------------------------------------------------------------
# Rendezvous assignment.
# ---------------------------------------------------------------------------


def test_owner_sets_have_exactly_replication_members_in_deployment_order():
    shard_map = ShardMap(NODES, shard_count=64, replication=3)
    order = {name: i for i, name in enumerate(NODES)}
    for shard in range(64):
        owners = shard_map.owners(shard)
        assert len(owners) == 3
        assert len(set(owners)) == 3
        assert list(owners) == sorted(owners, key=order.__getitem__)
        assert shard_map.primary(shard) in owners
        for name in NODES:
            assert (name in owners) == (shard in shard_map.owned_shards(name))


def test_shards_spread_across_the_cluster():
    shard_map = ShardMap(NODES, shard_count=64, replication=2)
    counts = {name: len(shard_map.owned_shards(name)) for name in NODES}
    assert sum(counts.values()) == 64 * 2
    # Rendezvous hashing balances statistically; with 64 shards over 8
    # nodes every node must own *something* and nobody owns everything.
    assert all(count > 0 for count in counts.values())
    assert all(count < 64 for count in counts.values())


def test_key_routing_is_stable_across_membership_change():
    before = ShardMap(NODES, shard_count=32, replication=2)
    after = ShardMap(NODES[:-1], shard_count=32, replication=2)
    for key in range(500):
        assert before.shard_of(key) == after.shard_of(key)


def test_removing_a_node_only_reassigns_the_shards_it_owned():
    before = ShardMap(NODES, shard_count=64, replication=2)
    removed = "n5"
    after = ShardMap(
        [n for n in NODES if n != removed], shard_count=64, replication=2
    )
    for shard in range(64):
        if removed not in before.owners(shard):
            # Non-owner departure: the owner set is untouched.
            assert after.owners(shard) == before.owners(shard)
        else:
            # Owner departure: the survivors stay put, exactly one
            # rendezvous-next node joins.
            survivors = set(before.owners(shard)) - {removed}
            assert survivors <= set(after.owners(shard))
            assert len(after.owners(shard)) == 2
    # The removed node must actually have owned something, or the test
    # proved nothing.
    assert before.owned_shards(removed)


def test_adding_a_node_only_reassigns_shards_it_wins():
    before = ShardMap(NODES, shard_count=64, replication=2)
    after = ShardMap(NODES + ["n8"], shard_count=64, replication=2)
    for shard in range(64):
        if "n8" not in after.owners(shard):
            # The joiner didn't win this shard: nothing moves.
            assert after.owners(shard) == before.owners(shard)
        else:
            # The joiner displaced exactly one old owner; the other
            # old owner keeps the shard (rendezvous stability).
            displaced = set(before.owners(shard)) - set(after.owners(shard))
            assert len(displaced) == 1
            assert len(after.owners(shard)) == 2
    # The joiner must actually win something, or the test proved nothing.
    assert after.owned_shards("n8")


# ---------------------------------------------------------------------------
# Explicit owner mappings.
# ---------------------------------------------------------------------------


def test_explicit_owners_override_rendezvous():
    shard_map = ShardMap(
        NODES[:4],
        shard_count=2,
        owners={0: ["n3", "n0"], 1: ["n1"]},
    )
    # Deployment order for rows, first-listed for the primary.
    assert shard_map.owners(0) == ("n0", "n3")
    assert shard_map.primary(0) == "n3"
    assert shard_map.owners(1) == ("n1",)
    assert shard_map.owned_shards("n2") == ()


def test_to_dict_round_trips_through_explicit_owners():
    original = ShardMap(NODES, shard_count=8, replication=3)
    data = original.to_dict()
    # JSON stringifies shard keys; _load_explicit accepts both spellings.
    restored = ShardMap(
        data["node_names"], data["shard_count"], owners=data["owners"]
    )
    assert restored == original
    assert restored.to_dict()["owners"] == data["owners"]


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(node_names=[]), "at least one node"),
        (dict(node_names=["a", "a"]), "duplicate"),
        (dict(node_names=["a"], shard_count=0), "positive"),
        (dict(node_names=["a", "b"], replication=0), "outside"),
        (dict(node_names=["a", "b"], replication=3), "outside"),
        (
            dict(node_names=["a", "b"], shard_count=2, owners={0: ["a"]}),
            "no owners",
        ),
        (dict(node_names=["a", "b"], owners={0: ["c"]}), "not a node"),
        (dict(node_names=["a", "b"], owners={0: ["a", "a"]}), "duplicate"),
    ],
)
def test_invalid_configurations_raise(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        ShardMap(**kwargs)


def test_out_of_range_shard_and_unknown_node_raise():
    shard_map = ShardMap(NODES, shard_count=4)
    with pytest.raises(ConfigError, match="out of range"):
        shard_map.owners(4)
    with pytest.raises(ConfigError, match="out of range"):
        shard_map.primary(-1)
    with pytest.raises(ConfigError, match="unknown node"):
        shard_map.owned_shards("ghost")
