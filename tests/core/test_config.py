"""Unit tests for StabilizerConfig."""

import pytest

from repro.core.config import StabilizerConfig
from repro.errors import ConfigError
from repro.net import NetemSpec, Topology

NODES = ["a", "b", "c"]
GROUPS = {"east": ["a", "b"], "west": ["c"]}


def make(**kwargs):
    return StabilizerConfig(NODES, GROUPS, "a", **kwargs)


def test_basic_properties():
    config = make()
    assert config.local_index == 0
    assert config.node_count() == 3
    assert config.remote_names() == ["b", "c"]
    assert config.node_index("c") == 2


def test_unknown_local_rejected():
    with pytest.raises(ConfigError):
        StabilizerConfig(NODES, GROUPS, "zz")


def test_duplicate_nodes_rejected():
    with pytest.raises(ConfigError):
        StabilizerConfig(["a", "a"], {"g": ["a"]}, "a")


def test_builtin_types_first():
    config = make(ack_types=["verified"])
    assert config.type_names() == ["received", "persisted", "verified"]
    assert config.type_ids() == {"received": 0, "persisted": 1, "verified": 2}


def test_builtin_type_collision_rejected():
    with pytest.raises(ConfigError):
        make(ack_types=["received"])
    with pytest.raises(ConfigError):
        make(ack_types=["v", "v"])


def test_parameter_validation():
    with pytest.raises(ConfigError):
        make(chunk_bytes=0)
    with pytest.raises(ConfigError):
        make(control_interval_s=0)
    with pytest.raises(ConfigError):
        make(control_batch=0)
    with pytest.raises(ConfigError):
        make(control_fanout="some")
    with pytest.raises(ConfigError):
        make(failure_timeout_s=0)


def test_unknown_node_index_rejected():
    with pytest.raises(ConfigError):
        make().node_index("zz")


def test_dsl_context_matches_deployment():
    ctx = make(ack_types=["verified"]).dsl_context()
    assert ctx.local_index == 0
    assert ctx.group_by_name("east") == (0, 1)
    assert ctx.type_id("verified") == 2


def test_for_node_changes_only_local():
    config = make(chunk_bytes=1024)
    other = config.for_node("c")
    assert other.local == "c"
    assert other.chunk_bytes == 1024
    assert other.node_names == config.node_names


def test_for_node_carries_every_field():
    """``for_node`` is ``replace(local=...)``: no field list to forget a
    new field in.  Every field is set off its default here (the int-keyed
    shard map included, whose keys round-trip through ``to_dict`` as
    strings), so a dropped one shows as a difference."""
    config = make(
        predicates={"all": "MIN($ALLWNODES)"},
        ack_types=["verified"],
        chunk_bytes=4096,
        control_interval_s=0.01,
        control_batch=4,
        control_fanout="origin",
        failure_timeout_s=2.0,
        max_buffer_bytes=1 << 20,
        frame_bytes=16 * 1024,
        max_retransmit_attempts=5,
        transport_max_rto_s=2.0,
        durability=True,
        durability_group_commit_interval_s=0.01,
        durability_group_commit_batch=8,
        durability_segment_bytes=4096,
        durability_dir="wal2",
        shard_count=2,
        shard_replication=2,
        shard_owners={0: ["a", "b"], 1: ["b", "c"]},
        shard_id=1,
        shard_epoch=3,
        stabilization_strategy="sequencer",
    )
    full, defaults = config.to_dict(), make().to_dict()
    positional = ("node_names", "groups", "local")
    assert [k for k in full if k not in positional and full[k] == defaults[k]] == []
    assert config.for_node("c").to_dict() == {**full, "local": "c"}


def test_dict_roundtrip():
    config = make(ack_types=["verified"], chunk_bytes=4096)
    clone = StabilizerConfig.from_dict(config.to_dict())
    assert clone.to_dict() == config.to_dict()


def test_from_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        StabilizerConfig.from_dict({"bogus": 1})


def test_from_topology():
    topo = Topology()
    topo.add_node("x", "g1")
    topo.add_node("y", "g2")
    topo.set_default(NetemSpec(1, 1))
    config = StabilizerConfig.from_topology(topo, "y")
    assert config.node_names == ["x", "y"]
    assert config.groups == {"g1": ["x"], "g2": ["y"]}
    assert config.local == "y"
