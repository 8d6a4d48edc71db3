"""repro — a reproduction of *Stabilizer: Geo-Replication with
User-defined Consistency* (ICDCS 2022).

The public API mirrors the paper's library surface:

- :class:`Stabilizer` — the geo-replication library (data plane + control
  plane + stability-frontier engine); :class:`StabilizerConfig` /
  :class:`StabilizerCluster` for deployment.
- The stability-frontier DSL — ``register_predicate`` /
  ``change_predicate`` take predicate source strings;
  :func:`standard_predicates` generates the paper's Table III set and
  :func:`shard_standard_predicates` its shard-scoped variant.
- Stabilization engines — :class:`StabilizationStrategy` is the control
  protocol behind the tables: :class:`AckTableStrategy` (the paper's ACK
  streaming, the default), :class:`SequencerStrategy` (deferred-update
  stabilization through one sequencer); select with
  ``StabilizerConfig(stabilization_strategy=...)`` (see
  ``docs/strategies.md``).
- Partial replication — :class:`ShardMap` assigns keys to shards and
  shards to owner sets; :class:`ShardedStabilizer` /
  :class:`ShardedCluster` run one Stabilizer stack per *owned* shard so
  control-plane fan-out and ACK-table memory scale with the owner set,
  not the cluster (see ``docs/sharding.md``).
- Live rebalancing — :class:`RebalancePlanner` computes minimal
  epoch-bumped ownership changes (joins, leaves, failovers) and
  :class:`RebalanceCoordinator` executes them against a running
  :class:`ShardedCluster`: freeze, drain, state handoff, single-instant
  cutover with epoch fencing, targeted re-replication (see
  ``docs/sharding.md``, "Rebalancing & failover").
- Applications — :class:`WanKVStore`, :class:`FileBackupService`,
  :class:`QuorumKV`, :class:`StabilizerBroker` (+ :class:`PulsarCluster`
  as the comparison baseline and :class:`PaxosCluster` for Fig. 6).
- Substrates — :class:`Simulator` / :class:`RealtimeScheduler` event
  loops, :class:`Topology` / :class:`NetemSpec` network emulation,
  :class:`ObjectStore` local storage.

Quick start::

    from repro import NetemSpec, Simulator, StabilizerCluster, \
        StabilizerConfig, Topology

    topo = Topology()
    topo.add_node("paris", "eu");  topo.add_node("oregon", "us")
    topo.set_default(NetemSpec(latency_ms=70, rate_mbit=100))
    sim = Simulator()
    cluster = StabilizerCluster(
        topo.build(sim),
        StabilizerConfig.from_topology(
            topo, "paris",
            predicates={"all": "MIN($ALLWNODES - $MYWNODE)"},
        ),
    )
    seq = cluster["paris"].send(b"hello, WAN")
    sim.run_until_triggered(cluster["paris"].waitfor(seq, "all"))
"""

from repro import testing
from repro.apps import FileBackupService, QuorumKV, WanKVStore
from repro.core import (
    AckTableStrategy,
    AdmissionController,
    CircuitBreaker,
    RebalanceCoordinator,
    RebalancePlan,
    RebalancePlanner,
    SequencerStrategy,
    ShardedCluster,
    ShardedStabilizer,
    ShardMap,
    SlaController,
    StabilizationStrategy,
    Stabilizer,
    StabilizerCluster,
    StabilizerConfig,
    TokenBucket,
    build_cluster,
    build_sharded_cluster,
)
from repro.core.degradation import DegradationPolicy, MaskSuspectedPolicy
from repro.dsl import (
    CompiledPredicate,
    PredicateCompiler,
    shard_standard_predicates,
    standard_predicates,
)
from repro.errors import AdmissionError, BackpressureError, ReproError
from repro.net import NetemSpec, Network, Topology
from repro.obs import (
    BlameTable,
    MetricsRegistry,
    SloAlerter,
    SnapshotWriter,
    build_span_trees,
    render_openmetrics,
)
from repro.obs.tracer import Tracer
from repro.paxos import PaxosCluster
from repro.pubsub import PulsarCluster, ReliableBroadcast, StabilizerBroker
from repro.runtime import RealtimeScheduler
from repro.sim import Simulator
from repro.storage import AppendLog, ObjectStore

__version__ = "1.0.0"

#: The public surface, alphabetical — the single source of truth.  The
#: snapshot test (``tests/test_public_api.py``) holds this list to the
#: checked-in ``docs/api_surface.txt``; changing either is an API event.
__all__ = [
    "AckTableStrategy",
    "AdmissionController",
    "AdmissionError",
    "AppendLog",
    "BackpressureError",
    "BlameTable",
    "CircuitBreaker",
    "CompiledPredicate",
    "DegradationPolicy",
    "FileBackupService",
    "MaskSuspectedPolicy",
    "MetricsRegistry",
    "NetemSpec",
    "Network",
    "ObjectStore",
    "PaxosCluster",
    "PredicateCompiler",
    "PulsarCluster",
    "QuorumKV",
    "RealtimeScheduler",
    "RebalanceCoordinator",
    "RebalancePlan",
    "RebalancePlanner",
    "ReliableBroadcast",
    "ReproError",
    "SequencerStrategy",
    "ShardMap",
    "ShardedCluster",
    "ShardedStabilizer",
    "Simulator",
    "SlaController",
    "SloAlerter",
    "SnapshotWriter",
    "StabilizationStrategy",
    "Stabilizer",
    "StabilizerBroker",
    "StabilizerCluster",
    "StabilizerConfig",
    "TokenBucket",
    "Topology",
    "Tracer",
    "WanKVStore",
    "build_cluster",
    "build_sharded_cluster",
    "build_span_trees",
    "render_openmetrics",
    "shard_standard_predicates",
    "standard_predicates",
    "testing",
]


def __dir__():
    return sorted(__all__)
