"""Seeded random crash/partition/heal schedules.

A schedule is a list of :class:`ChaosEvent` tuples, generated from a
``random.Random(seed)`` stream so the same seed always yields the same
schedule.  The generator maintains validity invariants so every schedule
can actually execute against a cluster:

- a node is only crashed while alive and only restarted while crashed;
- fewer than half the nodes (but at least one) are down at a time (the
  cluster must keep a live majority so traffic and stability keep
  flowing);
- at most one partition is active at a time (``Network.heal`` restores
  *every* link, so overlapping partitions would heal together anyway);
- the schedule ends with a heal and the restart of every crashed node,
  so the cluster always returns to full health before the final
  delivered-everywhere check;
- with ``disk_fault_kinds`` given, ``disk_fault`` events arm a storage
  fault (from that list) on one node's filesystem and ``disk_heal``
  events clear it — at most one armed fault per node at a time, every
  fault healed by the end.  The default (no disk faults) leaves
  historical seeds byte-identical;
- with ``spare_nodes`` given, ``node_join`` events bring provisioned
  spare hosts into the deployment (each joins at most once, and a
  joined spare becomes a crash candidate); with ``max_leaves > 0``,
  ``node_leave`` events decommission live members — never a currently
  crashed node, never below ``min_members`` survivors, and a departed
  member is never crashed, restarted, or picked again.  Membership
  events open no fault, so they need no closing event.  The defaults
  (no membership changes) leave historical seeds byte-identical;
- with ``flash_crowds > 0``, ``flash_crowd`` events surge one AZ's
  send rate (the harness applies a
  :class:`~repro.workloads.rates.FlashCrowdShape` multiplier) and
  ``flash_end`` events end the surge — at most one crowd at a time,
  always ended before the schedule closes.  With ``slow_nodes > 0``,
  ``slow_node`` events degrade one node's links (latency up, bandwidth
  down) and ``slow_heal`` events restore them — a node is slowed at
  most once at a time, every slowdown healed by the end.  Both budgets
  default to zero, leaving historical seeds byte-identical.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: The longest pause between two events, in virtual seconds.
MAX_GAP_S = 2.0


class ChaosEvent(NamedTuple):
    """One scheduled fault transition."""

    at: float  # virtual seconds
    # "crash" | "restart" | "partition" | "heal" | "disk_fault" |
    # "disk_heal" | "node_join" | "node_leave" | "flash_crowd" |
    # "flash_end" | "slow_node" | "slow_heal"
    kind: str
    # node name; the two partitioned AZ names; or (node, fault_kind).
    target: Tuple[str, ...]


def generate_schedule(
    groups: Dict[str, Sequence[str]],
    seed: int,
    events: int = 12,
    start: float = 1.0,
    min_gap: float = 0.5,
    disk_fault_kinds: Sequence[str] = (),
    spare_nodes: Sequence[str] = (),
    max_leaves: int = 0,
    min_members: Optional[int] = None,
    flash_crowds: int = 0,
    slow_nodes: int = 0,
) -> List[ChaosEvent]:
    """Generate a valid schedule of at least ``events`` fault events.

    ``groups`` maps AZ name -> member node names (the cluster topology).
    The count includes the closing heal/restart events; the generator
    keeps injecting random faults until the budget is spent, then closes
    every open fault.  ``spare_nodes`` names provisioned non-member
    hosts eligible for ``node_join``; ``max_leaves`` budgets
    ``node_leave`` events, which never shrink the membership below
    ``min_members`` (default: the initial membership minus the leave
    budget, floored at 2).  ``flash_crowds`` and ``slow_nodes`` budget
    the overload events (see module docstring).
    """
    if events < 2:
        raise ValueError("need at least 2 events for a fault and its repair")
    if len(groups) < 2:
        raise ValueError("need at least 2 AZs to partition")
    nodes = [n for members in groups.values() for n in members]
    max_crashed = max(1, (len(nodes) - 1) // 2)
    if min_members is None:
        min_members = max(2, len(nodes) - max_leaves)
    rng = random.Random(seed)
    az_names = sorted(groups)

    schedule: List[ChaosEvent] = []
    crashed: List[str] = []
    disk_faulted: List[str] = []
    spares_left = list(spare_nodes)
    leaves_left = max_leaves
    crowds_left = flash_crowds
    slows_left = slow_nodes
    crowd_active = False
    slowed: List[str] = []
    partitioned = False
    t = start

    def emit(kind: str, target: Tuple[str, ...]) -> None:
        nonlocal t
        schedule.append(ChaosEvent(round(t, 6), kind, target))
        t += rng.uniform(min_gap, MAX_GAP_S)

    while len(schedule) < events:
        # Close every open fault before the budget runs out: each crashed
        # node needs one restart and an open partition needs one heal.
        budget_left = events - len(schedule)
        must_close = (
            len(crashed)
            + len(disk_faulted)
            + len(slowed)
            + (1 if partitioned else 0)
            + (1 if crowd_active else 0)
        )
        choices = []
        if budget_left > must_close:
            if len(crashed) < max_crashed:
                choices.append("crash")
            if not partitioned:
                choices.append("partition")
            if disk_fault_kinds and len(disk_faulted) < len(nodes):
                choices.append("disk_fault")
            if spares_left:
                choices.append("node_join")
            if leaves_left > 0 and len(nodes) > min_members and (
                len(nodes) > len(crashed)
            ):
                choices.append("node_leave")
            if crowds_left > 0 and not crowd_active:
                choices.append("flash_crowd")
            if slows_left > 0 and len(slowed) < len(nodes):
                choices.append("slow_node")
        if crashed:
            choices.append("restart")
        if partitioned:
            choices.append("heal")
        if disk_faulted:
            choices.append("disk_heal")
        if crowd_active:
            choices.append("flash_end")
        if slowed:
            choices.append("slow_heal")
        kind = rng.choice(choices)
        if kind == "crash":
            victim = rng.choice(sorted(set(nodes) - set(crashed)))
            crashed.append(victim)
            emit("crash", (victim,))
        elif kind == "restart":
            victim = crashed.pop(rng.randrange(len(crashed)))
            emit("restart", (victim,))
        elif kind == "partition":
            a, b = rng.sample(az_names, 2)
            partitioned = True
            emit("partition", (a, b))
        elif kind == "disk_fault":
            victim = rng.choice(sorted(set(nodes) - set(disk_faulted)))
            fault = rng.choice(list(disk_fault_kinds))
            disk_faulted.append(victim)
            emit("disk_fault", (victim, fault))
        elif kind == "disk_heal":
            victim = disk_faulted.pop(rng.randrange(len(disk_faulted)))
            emit("disk_heal", (victim,))
        elif kind == "node_join":
            victim = spares_left.pop(rng.randrange(len(spares_left)))
            nodes.append(victim)  # a member now: crashable, leavable
            emit("node_join", (victim,))
        elif kind == "node_leave":
            victim = rng.choice(sorted(set(nodes) - set(crashed)))
            nodes.remove(victim)  # gone for good: never crashed again
            leaves_left -= 1
            emit("node_leave", (victim,))
        elif kind == "flash_crowd":
            az = rng.choice(az_names)
            crowds_left -= 1
            crowd_active = True
            emit("flash_crowd", (az,))
        elif kind == "flash_end":
            crowd_active = False
            emit("flash_end", ())
        elif kind == "slow_node":
            victim = rng.choice(sorted(set(nodes) - set(slowed)))
            slows_left -= 1
            slowed.append(victim)
            emit("slow_node", (victim,))
        elif kind == "slow_heal":
            victim = slowed.pop(rng.randrange(len(slowed)))
            emit("slow_heal", (victim,))
        else:
            partitioned = False
            emit("heal", ())
    # Close anything still open (can exceed the requested count).
    if partitioned:
        emit("heal", ())
    if crowd_active:
        emit("flash_end", ())
    for victim in list(slowed):
        emit("slow_heal", (victim,))
    for victim in list(disk_faulted):
        emit("disk_heal", (victim,))
    for victim in list(crashed):
        emit("restart", (victim,))
    return schedule


def describe(schedule: Sequence[ChaosEvent]) -> str:
    """A one-line-per-event human rendering (for logs and reports)."""
    return "\n".join(
        f"t={ev.at:8.3f}  {ev.kind:<9}  {' '.join(ev.target)}"
        for ev in schedule
    )
