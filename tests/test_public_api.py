"""The public API surface is frozen: ``repro.__all__`` must match the
checked-in snapshot (docs/api_surface.txt), every listed name must
resolve, and nothing deprecated may ride along.

Changing the surface is allowed — but it is an API event: update the
snapshot in the same commit and say so in the PR.
"""

import re
import warnings
from pathlib import Path

import pytest

import repro

SNAPSHOT = Path(__file__).resolve().parent.parent / "docs" / "api_surface.txt"
API_DOC = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def test_all_matches_snapshot():
    recorded = [
        line
        for line in SNAPSHOT.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert sorted(repro.__all__) == recorded, (
        "repro.__all__ diverged from docs/api_surface.txt — if the API "
        "change is intentional, regenerate the snapshot"
    )


def test_every_public_name_is_documented():
    """Exporting a name is only half the job: it must appear (in code
    backticks) somewhere in docs/api.md, so `make api-check` fails when
    a new public name ships undocumented."""
    text = API_DOC.read_text()
    missing = [
        name
        for name in repro.__all__
        if not re.search(rf"`[^`]*\b{re.escape(name)}\b[^`]*`", text)
    ]
    assert not missing, (
        f"public names missing from docs/api.md: {missing} — document "
        "them in the same commit that exports them"
    )


def test_all_is_sorted_and_unique():
    assert list(repro.__all__) == sorted(set(repro.__all__))


def test_every_name_resolves():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for name in repro.__all__:
            assert getattr(repro, name) is not None


def test_dir_is_all():
    assert dir(repro) == sorted(repro.__all__)


def test_import_is_warning_free():
    # `import repro` itself must never warn: -W error::DeprecationWarning
    # is part of `make api-check`.  (Already imported here; re-import of
    # the cached module is the cheap equivalent.)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        import repro  # noqa: F811

        _ = repro.Stabilizer


def test_synthetic_payload_alias_is_gone():
    """The one-release ``repro.SyntheticPayload`` shim expired: the
    double lives in ``repro.testing`` only."""
    with pytest.raises(AttributeError, match="SyntheticPayload"):
        repro.SyntheticPayload
    assert "SyntheticPayload" not in repro.__all__
    assert repro.testing.SyntheticPayload(3).length == 3


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.NoSuchThing


def test_stats_has_no_deprecated_wal_aliases():
    """PR-4's unprefixed wal_* stats aliases are gone: only the
    durability.-prefixed names survive."""
    from repro import (
        NetemSpec,
        Simulator,
        StabilizerCluster,
        StabilizerConfig,
        Topology,
    )

    topo = Topology()
    topo.add_node("a", "az0")
    topo.add_node("b", "az1")
    topo.set_default(NetemSpec(latency_ms=1, rate_mbit=1000))
    sim = Simulator()
    cluster = StabilizerCluster(
        topo.build(sim),
        StabilizerConfig.from_topology(
            topo,
            "a",
            predicates={"all": "MIN($ALLWNODES - $MYWNODE)"},
            durability=True,
        ),
    )
    cluster["a"].send(b"x" * 128)
    sim.run(until=1.0)
    stats = cluster["a"].stats()
    assert any(k.startswith("durability.") for k in stats)
    durability_keys = {
        k[len("durability."):] for k in stats if k.startswith("durability.")
    }
    leaked = durability_keys & set(stats)
    assert not leaked, f"unprefixed durability aliases leaked: {sorted(leaked)}"
    cluster.close()


def test_stabilizer_rejects_unknown_keywords():
    """The one-release ``Stabilizer(**tunables)`` shim expired: tunables
    live on ``StabilizerConfig``, and any extra keyword — a former
    tunable or a typo — is a plain ``TypeError``."""
    from repro import NetemSpec, Simulator, Stabilizer, StabilizerConfig, Topology

    topo = Topology()
    topo.add_node("a", "az0")
    topo.add_node("b", "az1")
    topo.set_default(NetemSpec(latency_ms=1, rate_mbit=1000))
    net = topo.build(Simulator())
    config = StabilizerConfig.from_topology(topo, "a")
    for keyword in ("frame_bytes", "no_such_knob"):
        with pytest.raises(TypeError, match=keyword):
            Stabilizer(net, config, **{keyword: 1024})
    node = Stabilizer(net, config.replace(frame_bytes=1024))
    assert node.config.frame_bytes == 1024
    node.close()
