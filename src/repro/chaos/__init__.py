"""Randomized chaos testing: one harness, three scenarios.

The paper's central claim is that stability tracking keeps working —
and predicates stay *meaningful* — across WAN failures (Section V).
This package turns that claim into a machine-checked property: a seeded
random schedule of fault events runs against a live multi-node cluster
under continuous traffic, and a set of safety invariants
(:mod:`repro.chaos.invariants`) is asserted after every event and at
quiescence.

:class:`ChaosHarness` owns what every run shares — topology, simulator,
flight recorder, invariant checker, staggered traffic timers, the
``kind -> handler`` event table with its ``crash`` / ``restart`` /
``partition`` / ``heal`` entries, the run loop and the common report
keys.  The config class handed to it selects the scenario:

- :class:`ChaosConfig` — **classic** (:func:`run_chaos`): a durable
  3-AZ cluster, ``disk_fault`` / ``disk_heal`` events and periodic
  checkpoints.  Frontier values observed by monitors never regress,
  no waiter is released early, ACK cells only advance, everything sent
  is delivered everywhere once the cluster heals, no ``persisted``
  claim ever exceeds the WAL's fsync watermark, and any persisted claim
  a peer observed survives the claimant's crash-restart.  Fields:
  ``seed, events, trace_dir, azs, nodes_per_az, settle_slice_s,
  max_settle_slices, disk_faults, checkpoint_interval_s,
  stabilization_strategy, trace_capacity``.
- :class:`OverloadChaosConfig` — **overload**
  (:func:`run_overload_chaos`): admission control and the closed-loop
  SLA controller at every node, ``flash_crowd`` / ``slow_node`` events;
  no admitted message is ever shed and every degraded predicate is
  walked back to its pristine definition once load subsides
  (invariants 13 and 14).  Fields: ``seed, events, trace_dir,
  flash_crowds, slow_nodes``.
- :class:`RebalanceChaosConfig` — **rebalance**
  (:func:`run_rebalance_chaos`): a sharded cluster with a
  :class:`~repro.core.rebalance.RebalanceCoordinator`, ``node_join`` /
  ``node_leave`` events; no delivery is lost across a cutover, every
  shard's replication factor is restored at quiescence, and each
  (shard, epoch) pair ever has exactly one owner set — including
  crashes landing mid-handoff (invariants 10–12).  Fields: ``seed,
  events, trace_dir``.

Everything else a run depends on — send period, payload size,
admission and controller tunings, shard count — is a named constant in
the scenario's module, next to the reason for its value, and the
topology (``azs``, ``nodes_per_az``, ``spare_hosts``, ``link``) is
class attributes of the config.  Every entry point also
takes ``schedule=``, a handcrafted event list replacing the generated
one.

Everything is deterministic per seed: the same seed reproduces the same
schedule, the same event interleaving, and the same final frontiers —
the whole report but its :data:`HOST_TIME_KEYS`, which is what
:func:`virtual_view` returns.
"""

from repro.chaos.harness import (
    CHAOS_DISK_FAULTS,
    HOST_TIME_KEYS,
    ChaosConfig,
    ChaosHarness,
    run_chaos,
    virtual_view,
)
from repro.chaos.invariants import InvariantChecker, InvariantViolation
from repro.chaos.overload import OverloadChaosConfig, run_overload_chaos
from repro.chaos.rebalance import RebalanceChaosConfig, run_rebalance_chaos
from repro.chaos.schedule import ChaosEvent, generate_schedule

__all__ = [
    "CHAOS_DISK_FAULTS",
    "ChaosConfig",
    "ChaosEvent",
    "ChaosHarness",
    "HOST_TIME_KEYS",
    "InvariantChecker",
    "InvariantViolation",
    "OverloadChaosConfig",
    "RebalanceChaosConfig",
    "generate_schedule",
    "run_chaos",
    "run_overload_chaos",
    "run_rebalance_chaos",
    "virtual_view",
]
