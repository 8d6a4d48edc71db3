"""The Stabilizer library core (the paper's primary contribution).

See :mod:`repro.core.stabilizer` for the facade and the paper's API;
:mod:`repro.core.frontier` for predicate evaluation; the data plane lives
in :mod:`repro.core.dataplane` and the stabilization engines (the paper's
ACK-table control plane plus the sequencer alternative) behind
:mod:`repro.core.strategy`.
"""

from repro.core.admission import (
    AdmissionController,
    AdmissionOutcome,
    CircuitBreaker,
    TokenBucket,
)
from repro.core.cluster import StabilizerCluster, build_cluster
from repro.core.config import StabilizerConfig
from repro.core.dataplane import DataPlane, SendBuffer
from repro.core.degradation import DegradationPolicy, MaskSuspectedPolicy
from repro.core.durability import DurabilityManager
from repro.core.frontier import FrontierEngine
from repro.core.membership import (
    FailureDetector,
    RebalancePlan,
    RebalancePlanner,
    ShardMap,
    ShardMove,
)
from repro.core.rebalance import (
    HandoffManager,
    RebalanceCoordinator,
    remap_inner_snapshot,
)
from repro.core.recovery import (
    load_snapshot,
    restore_state,
    save_snapshot,
    snapshot_state,
)
from repro.core.sharding import (
    ShardedCluster,
    ShardedStabilizer,
    build_sharded_cluster,
)
from repro.core.slacontrol import SlaController, relaxation_ladder
from repro.core.stabilizer import Stabilizer
# AckTable is re-exported through the strategy module: the lint in
# tests/core/test_import_lint.py keeps repro.core.acks private to the
# strategy layer.
from repro.core.strategy import (
    AckTable,
    AckTableStrategy,
    StabilizationStrategy,
    build_strategy,
)
from repro.core.strategy_sequencer import SequencerStrategy

__all__ = [
    "AckTable",
    "AckTableStrategy",
    "AdmissionController",
    "AdmissionOutcome",
    "CircuitBreaker",
    "DataPlane",
    "DegradationPolicy",
    "DurabilityManager",
    "FailureDetector",
    "MaskSuspectedPolicy",
    "FrontierEngine",
    "HandoffManager",
    "RebalanceCoordinator",
    "RebalancePlan",
    "RebalancePlanner",
    "SendBuffer",
    "SequencerStrategy",
    "ShardMap",
    "ShardMove",
    "ShardedCluster",
    "ShardedStabilizer",
    "SlaController",
    "StabilizationStrategy",
    "Stabilizer",
    "StabilizerCluster",
    "StabilizerConfig",
    "TokenBucket",
    "build_cluster",
    "build_sharded_cluster",
    "build_strategy",
    "load_snapshot",
    "relaxation_ladder",
    "remap_inner_snapshot",
    "restore_state",
    "save_snapshot",
    "snapshot_state",
]
