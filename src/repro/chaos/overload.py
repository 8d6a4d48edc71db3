"""The overload scenario: flash crowds and slow nodes against the closed loop.

The classic scenario (:mod:`repro.chaos.harness`) stresses the *fault*
story; this one stresses the *load* story on the same harness.  A 3-AZ
cluster runs with the full overload pipeline engaged at every node — an
:class:`~repro.core.admission.AdmissionController` in front of every
send and an :class:`~repro.core.slacontrol.SlaController` closing the
loop on a strict all-remote predicate — while a seeded schedule mixes
the classic faults with two more event kinds:

- ``flash_crowd`` multiplies one AZ's offered send rate through a
  :class:`~repro.workloads.rates.FlashCrowdShape` ramp (``flash_end``
  ends it);
- ``slow_node`` reshapes one node's links to WAN-storm latency and a
  trickle of bandwidth (``slow_heal`` restores the topology spec).

On top of invariants 1–12, the run continuously audits invariant 13
(admission accounting: nothing admitted is ever shed, offered work is
conserved) and asserts invariant 14 at quiescence (every controller
walked back to the pristine predicate and no local send is left
uncovered).  Deterministic per seed, like every chaos run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from repro.chaos.harness import (
    ChaosHarness,
    Scenario,
    ScenarioConfig,
    run_chaos,
)
from repro.chaos.schedule import ChaosEvent
from repro.core.cluster import StabilizerCluster
from repro.core.slacontrol import SlaController
from repro.net.tc import NetemSpec
from repro.obs.catalogue import merge
from repro.transport.messages import SyntheticPayload
from repro.workloads.rates import FlashCrowdShape

SLA_KEY = "sla_strict"
SLA_SOURCE = "MIN($ALLWNODES - $MYWNODE)"

PAYLOAD_BYTES = 512
WAITER_EVERY = 7  # every n-th admitted send of a node gets a guarded waiter
# Edge admission: the token-bucket rate sits above the base offered rate
# (10/s per node) and far below a crowd's (100/s), so only surges shed;
# and high enough that what a crowd gets through still loads a narrow
# WAN, so the SLA loop has to act (the flash_crowd bench: at 15/s its
# controllers never take a step).
ADMIT_RATE_PER_S = 25.0
# The SLA loop's stability-latency target.
TARGET_P99_S = 0.5
CROWD_MULTIPLIER = 10.0  # a flash crowd's send-rate factor...
CROWD_RAMP_S = 0.5  # ...reached, and later shed, over this long
SLOW_LINK = NetemSpec(latency_ms=250.0, rate_mbit=1.0)  # a slow node's links


class OverloadScenario(Scenario):
    """See module docstring."""

    name = "overload"
    rng_salt = 0x0F1A5

    def __init__(self, harness: ChaosHarness):
        super().__init__(harness)
        self.admission: Dict[str, object] = {}
        self.sla: Dict[str, SlaController] = {}
        # The active flash crowd: (AZ name, rate-multiplier shape).
        self._crowd: Optional[Tuple[str, FlashCrowdShape]] = None

    def schedule_budgets(self) -> dict:
        return {
            "flash_crowds": self.config.flash_crowds,
            "slow_nodes": self.config.slow_nodes,
        }

    def build_cluster(self) -> StabilizerCluster:
        harness = self.harness
        base = harness.stabilizer_config(predicates={SLA_KEY: SLA_SOURCE})
        self.cluster = StabilizerCluster(harness.net, base, tracer=harness.tracer)
        return self.cluster

    def arm_node(self, node) -> None:
        """Install the full overload pipeline on one (re)built node."""
        super().arm_node(node)
        controller = node.set_admission(rate_per_s=ADMIT_RATE_PER_S)
        controller.on_admitted(
            lambda seq, name=node.name: self.checker.note_sent(name, seq)
        )
        self.admission[node.name] = controller
        self.sla[node.name] = SlaController(node, SLA_KEY, TARGET_P99_S)

    def rearm_node(self, node) -> None:
        # A controller may have died mid-degradation; the snapshot
        # then restores a relaxed source.  A restarted node rejoins
        # at strict — the fresh controller owns the walk from here.
        node.change_predicate(SLA_KEY, SLA_SOURCE)
        self.arm_node(node)

    def crash_node(self, node) -> None:
        self.sla.pop(node.name).close()
        self.admission.pop(node.name)  # node.crash() closes it
        node.crash()

    # -- traffic -----------------------------------------------------------------
    def send_interval(self, name: str) -> float:
        if self._crowd is None or name not in self.harness.groups[self._crowd[0]]:
            return self.send_interval_s
        return self.send_interval_s / self._crowd[1].rate_at(self.harness.sim.now)

    def send(self, name: str) -> None:
        size = self.harness.rng.randrange(64, PAYLOAD_BYTES)
        outcome = self.admission[name].submit(SyntheticPayload(size))
        # note_sent rides the on_admitted hook — queued entries count
        # only when the pump actually sends them, shed ones never.
        if outcome.status == "sent" and outcome.seq % WAITER_EVERY == 0:
            self.harness.guard(self.cluster[name], outcome.seq, SLA_KEY)

    # -- the overload events -------------------------------------------------------
    def handlers(self) -> Dict[str, Callable[..., None]]:
        return {
            "flash_crowd": self._flash_crowd,
            "flash_end": self._flash_end,
            "slow_node": lambda name: self._set_link_spec(name, SLOW_LINK),
            "slow_heal": lambda name: self._set_link_spec(name, None),
        }

    def _flash_crowd(self, az: str) -> None:
        shape = FlashCrowdShape(
            base_rate=1.0,
            peak_rate=CROWD_MULTIPLIER,
            t0=self.harness.sim.now,
            ramp_s=CROWD_RAMP_S,
            # Held until the schedule's flash_end clears it.
            hold_s=self.harness.traffic_end(),
            decay_s=CROWD_RAMP_S,
        )
        self._crowd = (az, shape)

    def _flash_end(self) -> None:
        self._crowd = None

    def _set_link_spec(self, name: str, spec: Optional[NetemSpec]) -> None:
        """Reshape every link touching ``name`` — to ``spec``, or back to
        the topology's own spec when ``spec`` is None."""
        harness = self.harness
        for peer in harness.node_names:
            if peer == name:
                continue
            for src, dst in ((name, peer), (peer, name)):
                chosen = spec or harness.topo.link_spec(src, dst)
                harness.net.link(src, dst).reshape(
                    latency_s=chosen.latency_s,
                    bandwidth_bps=chosen.bandwidth_bps,
                )

    # -- checks --------------------------------------------------------------------
    def after_event(self) -> None:
        self.checker.check_admission(sorted(self.admission.items()))

    def quiescent(self) -> bool:
        """Delivery everywhere, admission queues drained, and the
        controllers' restore path given enough calm ticks to walk the
        predicates back to strict."""
        if not super().quiescent():
            return False
        if any(c.queue_depth() for c in self.admission.values()):
            return False
        return all(
            c.restored()
            and c.stabilizer.stability.oldest_pending_age(SLA_KEY) == 0.0
            for c in self.sla.values()
        )

    def final_checks(self) -> None:
        self.checker.check_admission(sorted(self.admission.items()))
        self.checker.check_sla_restoration(sorted(self.sla.items()))

    def report_extras(self, elapsed_s: float) -> dict:
        steps = [c.stats()["slacontrol.degrade_steps"] for c in self.sla.values()]
        return {
            "nodes": len(self.harness.node_names),
            "admission": merge([c.stats() for c in self.admission.values()]),
            "slacontrol": {
                name: ctrl.stats() for name, ctrl in sorted(self.sla.items())
            },
            "max_degrade_steps": max(steps, default=0),
            "restored": all(c.restored() for c in self.sla.values()),
        }

    def close(self) -> None:
        for controller in self.sla.values():
            controller.close()


@dataclass
class OverloadChaosConfig(ScenarioConfig):
    """Knobs for one overload chaos run (3 AZ × 2 nodes)."""

    events: int = 10
    flash_crowds: int = 1  # schedule budgets for the two overload events
    slow_nodes: int = 1
    scenario: ClassVar[type] = OverloadScenario


def run_overload_chaos(
    config: Optional[OverloadChaosConfig] = None,
    schedule: Optional[List[ChaosEvent]] = None,
) -> dict:
    """One overload run: build the harness, run it, close it, report."""
    return run_chaos(config or OverloadChaosConfig(), schedule)
