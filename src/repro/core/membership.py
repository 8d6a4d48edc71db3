"""Membership: shard ownership and failure detection.

Two concerns live here, both answering "which nodes are responsible for
what":

- :class:`ShardMap` — the consistent key→shard→owner-set assignment that
  partial replication (ROADMAP item 1, after Xiang & Vaidya's *Global
  Stabilization for Causally Consistent Partial Replication*) is built
  on.  Keys hash to shards; each shard is owned by a rendezvous-chosen
  subset of the WAN nodes; a node replicates and stabilizes only the
  shards it owns.  Maps are *epoch-numbered*: every membership change
  produces a successor map with the epoch bumped, and every data/control
  frame of a shard stack is fenced on the epoch of the map it was built
  from.
- :class:`RebalancePlanner` — computes the minimal set of per-shard
  ownership moves between two maps.  Rendezvous hashing guarantees
  minimality structurally: a membership change only disturbs the shards
  whose owner sets actually involve the joining or leaving node, and the
  planner simply collects the shards whose owner sets differ.
- :class:`FailureDetector` — Section III-E's peer liveness tracking.

Failure detection for Section III-E.

"The crashed secondary node can be observed by a predicate update timer or
the data transmission failure information.  The primary can adjust the
predicate to eliminate the impact."  The detector tracks when each peer
was last heard from (any data or control arrival) and suspects peers whose
silence exceeds the configured timeout — but only once traffic has
actually been exchanged, so an idle system does not generate false alarms.

Suspicion has two sources: the timer (silence beyond ``failure_timeout_s``)
and the *data transmission failure information* — a transport channel that
exhausted its retransmit attempts calls :meth:`suspect` directly, which is
usually much faster than waiting out the heartbeat silence.
"""

from __future__ import annotations

import zlib
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

from repro.core.config import StabilizerConfig
from repro.errors import ConfigError
from repro.sim.kernel import Simulator

SuspectFn = Callable[[str], None]


def _stable_hash(text: str) -> int:
    """A process-independent hash (``hash()`` is salted per interpreter).

    CRC32 is plenty: shard routing needs stability and spread, not
    cryptographic strength."""
    return zlib.crc32(text.encode("utf-8"))


class ShardMap:
    """Consistent key→shard assignment with per-shard owner sets.

    - ``shard_of(key)`` depends only on ``shard_count`` — re-deploying
      with different membership never re-routes a key to another shard.
    - Owner sets come from rendezvous (highest-random-weight) hashing:
      for shard *s* every node is scored by a stable hash of ``(s,
      node)`` and the top ``replication`` nodes own the shard.  Removing
      a node therefore only re-assigns the shards it owned; every other
      owner set is untouched (the key-routing-stability property the
      tests pin down).
    - ``owners(shard)`` is returned in *deployment order* (the order of
      ``node_names``), which fixes per-shard ACK-table row indices.
    - ``primary(shard)`` is the top-scored owner — the routing target
      for writes originating at non-owners.

    ``replication=None`` (the default) means every node owns every shard
    — full replication, the degenerate configuration that must behave
    exactly like the unsharded engine.  An explicit ``owners`` mapping
    (``{shard_id: [names]}``) overrides rendezvous assignment entirely.

    ``epoch`` numbers the map's place in a deployment's membership
    history: the initial map is epoch 0 and every successor the rebalance
    coordinator builds bumps it by one.  Shard stacks stamp their map
    epoch into every frame, so a node still running a superseded layout
    gets fenced instead of corrupting ACK rows (see
    :mod:`repro.core.rebalance`).
    """

    def __init__(
        self,
        node_names: Sequence[str],
        shard_count: int = 1,
        replication: Optional[int] = None,
        owners: Optional[Dict[int, Sequence[str]]] = None,
        epoch: int = 0,
    ):
        if not node_names:
            raise ConfigError("ShardMap needs at least one node")
        if len(set(node_names)) != len(node_names):
            raise ConfigError("duplicate node names")
        if shard_count <= 0:
            raise ConfigError("shard_count must be positive")
        if replication is not None and not 1 <= replication <= len(node_names):
            raise ConfigError(
                f"shard replication {replication} outside 1..{len(node_names)}"
            )
        if epoch < 0:
            raise ConfigError("epoch must be non-negative")
        self.node_names = list(node_names)
        self.shard_count = shard_count
        self.replication = replication
        self.epoch = int(epoch)
        self._explicit = owners is not None
        self._order = {name: i for i, name in enumerate(self.node_names)}
        self._owners: Dict[int, Tuple[str, ...]] = {}
        self._primaries: Dict[int, str] = {}
        if owners is not None:
            self._load_explicit(owners)
        else:
            for shard in range(shard_count):
                ranked = self._ranked(shard)
                chosen = ranked if replication is None else ranked[:replication]
                self._primaries[shard] = chosen[0]
                self._owners[shard] = tuple(
                    sorted(chosen, key=self._order.__getitem__)
                )

    def _ranked(self, shard: int) -> List[str]:
        """Nodes by descending rendezvous score for ``shard`` (ties break
        on deployment order, so the ranking is total and deterministic)."""
        return sorted(
            self.node_names,
            key=lambda name: (-_stable_hash(f"shard:{shard}/{name}"),
                              self._order[name]),
        )

    def _load_explicit(self, owners: Dict[int, Sequence[str]]) -> None:
        for shard in range(self.shard_count):
            members = owners.get(shard, owners.get(str(shard)))
            if not members:
                raise ConfigError(f"shard {shard} has no owners")
            for name in members:
                if name not in self._order:
                    raise ConfigError(
                        f"shard {shard} owner {name!r} is not a node"
                    )
            if len(set(members)) != len(members):
                raise ConfigError(f"shard {shard} lists duplicate owners")
            self._primaries[shard] = list(members)[0]
            self._owners[shard] = tuple(
                sorted(members, key=self._order.__getitem__)
            )

    # -- key routing -------------------------------------------------------------
    def shard_of(self, key) -> int:
        """The shard ``key`` lives on.  Stable across membership changes
        (it reads nothing but ``shard_count``)."""
        return _stable_hash(str(key)) % self.shard_count

    def owner_for_key(self, key) -> str:
        """The primary owner to route a write on ``key`` to."""
        return self._primaries[self.shard_of(key)]

    # -- ownership ---------------------------------------------------------------
    def owners(self, shard: int) -> Tuple[str, ...]:
        self._check(shard)
        return self._owners[shard]

    def primary(self, shard: int) -> str:
        self._check(shard)
        return self._primaries[shard]

    def owned_shards(self, name: str) -> Tuple[int, ...]:
        """Every shard ``name`` owns, ascending."""
        if name not in self._order:
            raise ConfigError(f"unknown node {name!r}")
        return tuple(
            shard
            for shard in range(self.shard_count)
            if name in self._owners[shard]
        )

    def owners_per_shard(self) -> int:
        """The (maximum) owner-set size — run metadata for benchmarks."""
        return max(len(members) for members in self._owners.values())

    def _check(self, shard: int) -> None:
        if not 0 <= shard < self.shard_count:
            raise ConfigError(
                f"shard {shard} out of range 0..{self.shard_count - 1}"
            )

    # -- (de)serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "node_names": list(self.node_names),
            "shard_count": self.shard_count,
            "replication": self.replication,
            "epoch": self.epoch,
            "owners": {
                str(shard): list(members)
                for shard, members in self._owners.items()
            },
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ShardMap)
            and other.node_names == self.node_names
            and other.shard_count == self.shard_count
            and other.epoch == self.epoch
            and other._owners == self._owners
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardMap epoch={self.epoch} {self.shard_count} shards x "
            f"{len(self.node_names)} nodes, replication={self.replication}>"
        )


class ShardMove(NamedTuple):
    """One shard's ownership change between two maps."""

    shard_id: int
    old: Tuple[str, ...]
    new: Tuple[str, ...]

    @property
    def joiners(self) -> Tuple[str, ...]:
        """New owners that were not owners before — need state handoff."""
        return tuple(n for n in self.new if n not in self.old)

    @property
    def leavers(self) -> Tuple[str, ...]:
        """Old owners no longer owning — release state after cutover."""
        return tuple(n for n in self.old if n not in self.new)

    @property
    def stayers(self) -> Tuple[str, ...]:
        """Owners on both sides — remap tables in place, handoff sources."""
        return tuple(n for n in self.old if n in self.new)


class RebalancePlan:
    """The minimal set of per-shard moves taking ``old_map`` to ``new_map``."""

    def __init__(self, old_map: ShardMap, new_map: ShardMap,
                 moves: Sequence[ShardMove]):
        self.old_map = old_map
        self.new_map = new_map
        self.moves: Tuple[ShardMove, ...] = tuple(moves)

    @property
    def old_epoch(self) -> int:
        return self.old_map.epoch

    @property
    def new_epoch(self) -> int:
        return self.new_map.epoch

    def moved_shards(self) -> Tuple[int, ...]:
        return tuple(move.shard_id for move in self.moves)

    def summary(self) -> dict:
        """Run metadata for benchmarks and traces."""
        return {
            "old_epoch": self.old_epoch,
            "new_epoch": self.new_epoch,
            "shards_moved": len(self.moves),
            "shards_total": self.new_map.shard_count,
            "handoffs": sum(len(move.joiners) for move in self.moves),
            "releases": sum(len(move.leavers) for move in self.moves),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RebalancePlan epoch {self.old_epoch}->{self.new_epoch}, "
            f"{len(self.moves)} moves>"
        )


class RebalancePlanner:
    """Computes the minimal shard moves for a membership change.

    Rendezvous hashing does the heavy lifting: a join only disturbs the
    shards the new node *wins* (scores into the top ``replication``),
    and a leave only disturbs the shards the departing node owned.  The
    planner therefore just diffs owner sets between the current map and
    its successor — every shard whose owner set is unchanged keeps its
    running stack, epoch stamp and all.
    """

    def __init__(self, shard_map: ShardMap):
        self.shard_map = shard_map

    def plan(self, new_map: ShardMap) -> RebalancePlan:
        """Diff ``new_map`` against the current map shard by shard."""
        if new_map.shard_count != self.shard_map.shard_count:
            raise ConfigError(
                f"shard_count cannot change in a rebalance "
                f"({self.shard_map.shard_count} -> {new_map.shard_count})"
            )
        moves = [
            ShardMove(shard, self.shard_map.owners(shard),
                      new_map.owners(shard))
            for shard in range(new_map.shard_count)
            if set(self.shard_map.owners(shard)) != set(new_map.owners(shard))
        ]
        return RebalancePlan(self.shard_map, new_map, moves)


class FailureDetector:
    """Timer-based peer liveness tracking."""

    def __init__(self, sim: Simulator, config: StabilizerConfig):
        self.sim = sim
        self.config = config
        self.timeout_s = config.failure_timeout_s
        self._last_heard: Dict[str, float] = {}
        self._suspected: Set[str] = set()
        self._on_suspect: List[SuspectFn] = []
        self._on_recover: List[SuspectFn] = []
        self._timer = None
        self._running = False
        self.suspicions = 0
        self.recoveries = 0

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._timer = self.sim.call_later(self.timeout_s / 2, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- observations -----------------------------------------------------------------
    def heard_from(self, peer: str) -> None:
        """Any arrival from ``peer`` proves it alive right now.

        After :meth:`stop` the timestamp is still recorded (so a detector
        restarted later has fresh data) but recovery callbacks no longer
        fire into the torn-down node.
        """
        self._last_heard[peer] = self.sim.now
        if peer in self._suspected:
            self._suspected.discard(peer)
            if not self._running:
                return
            self.recoveries += 1
            for callback in self._on_recover:
                callback(peer)

    def suspect(self, peer: str) -> None:
        """Force suspicion of ``peer`` out of band.

        Used for the paper's "data transmission failure information": the
        transport reports a dead peer the instant its bounded retransmit
        attempts run out, without waiting for heartbeat silence.
        Callbacks fire only while the detector is running.
        """
        if peer in self._suspected:
            return
        self._suspected.add(peer)
        if not self._running:
            return
        self.suspicions += 1
        for callback in self._on_suspect:
            callback(peer)

    def on_suspect(self, callback: SuspectFn) -> None:
        self._on_suspect.append(callback)

    def on_recover(self, callback: SuspectFn) -> None:
        self._on_recover.append(callback)

    def suspected(self) -> Set[str]:
        return set(self._suspected)

    def is_suspected(self, peer: str) -> bool:
        return peer in self._suspected

    def last_heard(self, peer: str) -> Optional[float]:
        return self._last_heard.get(peer)

    # -- internals ---------------------------------------------------------------------
    def _tick(self) -> None:
        self._timer = None
        if not self._running:
            return
        now = self.sim.now
        for peer, last in self._last_heard.items():
            if peer in self._suspected:
                continue
            if now - last > self.timeout_s:
                self._suspected.add(peer)
                self.suspicions += 1
                for callback in self._on_suspect:
                    callback(peer)
        self._timer = self.sim.call_later(self.timeout_s / 2, self._tick)
