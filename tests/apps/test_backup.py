"""File backup service tests (the Dropbox-like application)."""

import pytest

from repro.apps import FileBackupService, WanKVStore
from repro.core import StabilizerCluster, StabilizerConfig
from repro.errors import StorageError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.transport.messages import SyntheticPayload

# The paper's Fig. 2 layout (see DESIGN.md on the node/region mapping).
NODES = ["nc1", "nc2", "nv1", "nv2", "nv3", "nv4", "oregon1", "ohio1"]
GROUPS = {
    "North California": ["nc1", "nc2"],
    "North Virginia": ["nv1", "nv2", "nv3", "nv4"],
    "Oregon": ["oregon1"],
    "Ohio": ["ohio1"],
}


def build():
    topo = Topology()
    for name in NODES:
        for group, members in GROUPS.items():
            if name in members:
                topo.add_node(name, group)
    topo.set_default(NetemSpec(latency_ms=15, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(NODES, GROUPS, "nc1", control_interval_s=0.001)
    cluster = StabilizerCluster(net, config)
    services = {
        name: FileBackupService(WanKVStore(cluster[name])) for name in NODES
    }
    return sim, net, services


def test_standard_predicates_installed():
    sim, net, services = build()
    keys = set(services["nc1"].stabilizer.engine.predicate_keys())
    assert {
        "OneRegion",
        "MajorityRegions",
        "AllRegions",
        "OneWNode",
        "MajorityWNodes",
        "AllWNodes",
    } <= keys


def test_upload_and_remote_download():
    sim, net, services = build()
    handle = services["nc1"].upload("report.pdf", b"pdf-bytes", "AllWNodes")
    sim.run_until_triggered(handle.stable, limit=3.0)
    assert services["ohio1"].download("report.pdf") == b"pdf-bytes"
    assert services["ohio1"].files() == {"report.pdf": 9}


def test_upload_chunking_matches_8kb_rule():
    sim, net, services = build()
    handle = services["nc1"].upload("big.bin", SyntheticPayload(100_000))
    # 100000 / 8192 -> 13 chunks; seq of the last chunk identifies the file.
    assert handle.seq == 13
    assert handle.size == 100_000


def test_stability_order_across_predicates():
    sim, net, services = build()
    svc = services["nc1"]
    handle = svc.upload("f", SyntheticPayload(50_000))
    times = {}
    for key in ("OneRegion", "MajorityRegions", "AllRegions"):
        svc.stabilizer.waitfor(handle.seq, key).add_callback(
            lambda e, _k=key: times.setdefault(_k, sim.now)
        )
    sim.run(until=5.0)
    assert (
        times["OneRegion"] <= times["MajorityRegions"] <= times["AllRegions"]
    )


def test_empty_name_rejected():
    sim, net, services = build()
    with pytest.raises(StorageError):
        services["nc1"].upload("", b"x")


def test_re_upload_creates_new_version():
    sim, net, services = build()
    svc = services["nc1"]
    svc.upload("f", b"v1")
    handle = svc.upload("f", b"v2", "AllWNodes")
    sim.run_until_triggered(handle.stable, limit=3.0)
    assert services["nv3"].download("f") == b"v2"
    assert services["nv3"].kv.get("file:f").version == 2
