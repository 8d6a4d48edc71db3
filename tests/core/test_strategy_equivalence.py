"""Seed-for-seed equivalence: ``AckTableStrategy`` == the pre-refactor engine.

The strategy redesign (``docs/strategies.md``) promised zero behavior
change for the default engine.  This test replays a fixed, seeded WAN
scenario — four nodes, mixed payload sizes, an application ack type, a
mid-run predicate change — and compares every frontier advance (time,
key, origin, value), the final frontier matrix, the full ACK tables and
the plane counters against ``data/strategy_golden.json``, a fixture
captured from the tree *before* the control plane was extracted behind
:class:`repro.core.strategy.StabilizationStrategy`.

The fixture was regenerated once since, when control frames moved off
the reliable FIFO onto the datagram carrier: a checked diff showed every
advance (key, origin, new, old), every advance *time*, the frontiers,
tables, watermarks and message counters identical, and only the three
``control_*`` counters changed (tail probes and full-state heartbeats
are counted as frames).  And once more when the data channel's ACK
became the received report (and its timer moved ahead of the report
flush): every advance's key, origin and values, the frontiers, tables,
watermarks and counters identical, every advance time within 1.08 µs of
the old one — a ``received`` advance sooner by the serialization a
report is longer than an ACK, a ``verified`` one later by the ACK now
ahead of it on the link.

The fixture is compared through :func:`collapse` since a WAN frame
became the unit of arrival: a receiver applies a frame of *k* consecutive
sequence numbers as one ACK-table update, so a monitor there sees one
advance per arrival — ``(t, relaxed, a, 3, 1)`` — where the fixture
records the same-instant chain ``(t, relaxed, a, 2, 1), (t, relaxed, a,
3, 2)``.  ``collapse`` merges exactly those chains (consecutive rows of
one ``(time, key, origin)``) into ``(time, key, origin, last value,
first old)``; the file itself is untouched, and the frontiers, tables,
watermarks and counters compare exactly as before.

Regenerate (only when the protocol itself legitimately changes) with::

    PYTHONPATH=src python tests/core/test_strategy_equivalence.py
"""

import json
import random
from pathlib import Path

from repro.core import StabilizerCluster, StabilizerConfig
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.transport.messages import SyntheticPayload

FIXTURE = Path(__file__).parent / "data" / "strategy_golden.json"

NODES = ["a", "b", "c", "d"]
GROUPS = {"east": ["a", "b"], "west": ["c", "d"]}
PREDICATES = {
    "strict": "MIN($ALLWNODES - $MYWNODE)",
    "relaxed": "MAX($ALLWNODES - $MYWNODE)",
    "quorum": "KTH_MAX(2, $ALLWNODES - $MYWNODE)",
    "verified_all": "MIN(($ALLWNODES - $MYWNODE).verified)",
}


def _run_scenario(**config_overrides):
    topo = Topology()
    for name in NODES:
        topo.add_node(name, "east" if name in GROUPS["east"] else "west")
    topo.set_default(NetemSpec(latency_ms=12.0, rate_mbit=200.0))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        NODES,
        GROUPS,
        "a",
        predicates=PREDICATES,
        ack_types=["verified"],
        control_interval_s=0.002,
        control_batch=4,
        **config_overrides,
    )
    cluster = StabilizerCluster(net, config)

    trajectory = {name: [] for name in NODES}
    for name in NODES:
        node = cluster[name]
        for key in PREDICATES:
            node.monitor_stability_frontier(
                key,
                lambda origin, new, old, _n=name, _k=key: trajectory[_n].append(
                    [round(sim.now, 9), _k, origin, new, old]
                ),
            )
        # Receivers countersign every delivery with the app-defined type.
        node.on_delivery(
            lambda origin, seq, payload, meta, _n=name: cluster[
                _n
            ].report_stability("verified", seq, origin=origin)
        )

    rng = random.Random(0xC0FFEE)
    t = 0.0
    for _ in range(40):
        t += rng.uniform(0.002, 0.03)
        sender = rng.choice(NODES)
        size = rng.randint(200, 9000)
        sim.call_later(
            t, lambda s=sender, z=size: cluster[s].send(SyntheticPayload(z))
        )
    # Mid-run reconfiguration exercises the change_predicate path.
    sim.call_later(
        0.4,
        lambda: cluster["a"].change_predicate(
            "strict", "MIN($ALLWNODES - $MYWNODE - $WNODE_d)"
        ),
    )
    sim.run(until=2.0)

    result = {
        "trajectory": trajectory,
        "frontiers": {
            name: {
                key: {
                    origin: cluster[name].get_stability_frontier(key, origin)
                    for origin in NODES
                }
                for key in list(PREDICATES) + ["strict"]
            }
            for name in NODES
        },
        "tables": {
            name: {
                origin: table.snapshot()
                for origin, table in cluster[name].tables.items()
            }
            for name in NODES
        },
        "delivery_watermark": {
            name: cluster[name].delivery_watermark() for name in NODES
        },
        "counters": {
            name: {
                "messages_sent": cluster[name].dataplane.messages_sent,
                "messages_received": cluster[name].dataplane.messages_received,
                "control_frames_sent": cluster[name].controlplane.frames_sent,
                "control_frames_received": (
                    cluster[name].controlplane.frames_received
                ),
                "control_bytes_sent": cluster[name].controlplane.bytes_sent,
            }
            for name in NODES
        },
    }
    cluster.close()
    return result


def collapse(rows):
    """Merge each chain of consecutive ``[time, key, origin, new, old]``
    rows with equal ``(time, key, origin)`` into one row carrying the
    chain's last ``new`` and first ``old`` — what a monitor reports when
    the chain's updates are applied as one."""
    merged = []
    for row in rows:
        if merged and merged[-1][:3] == row[:3]:
            merged[-1][3] = row[3]
        else:
            merged.append(list(row))
    return merged


def test_collapse_merges_only_same_instant_chains_of_one_slot():
    chain = [[0.5, "relaxed", "a", 2, 1], [0.5, "relaxed", "a", 3, 2],
             [0.5, "relaxed", "a", 4, 3]]
    assert collapse(chain) == [[0.5, "relaxed", "a", 4, 1]]
    apart = [
        [0.5, "relaxed", "a", 2, 1],
        [0.6, "relaxed", "a", 3, 2],  # a later time
        [0.6, "quorum", "a", 3, 2],  # another key
        [0.6, "quorum", "b", 3, 2],  # another origin
        [0.6, "relaxed", "a", 4, 3],  # same slot and time, not consecutive
    ]
    assert collapse(apart) == apart
    assert collapse([]) == []
    assert chain[0] == [0.5, "relaxed", "a", 2, 1]  # input left alone


def test_acktable_strategy_matches_pre_refactor_golden():
    golden = json.loads(FIXTURE.read_text())
    # JSON round-trip normalizes tuples/ints identically on both sides.
    fresh = json.loads(json.dumps(_run_scenario()))
    assert fresh.pop("trajectory") == {
        node: collapse(rows) for node, rows in golden.pop("trajectory").items()
    }
    assert fresh == golden


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(
        json.dumps(json.loads(json.dumps(_run_scenario())), indent=1)
    )
    print(f"wrote {FIXTURE}")
