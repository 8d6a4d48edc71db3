"""Stabilizer configuration.

The paper: "Stabilizer configuration file includes a list of data centers
where the system has been deployed.  Within this list, a subset notation
designates availability zones.  Thus when Stabilizer is launched it can
look up its own data center name and convert this to an index number."
(Section III-C.)  :class:`StabilizerConfig` is that file as an object; it
also carries predicate definitions to install at launch and the tuning
knobs of the data/control planes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.dsl.semantics import DEFAULT_TYPE, DslContext
from repro.errors import ConfigError
from repro.transport.fifo import MIN_RTO_S

BUILTIN_TYPES = (DEFAULT_TYPE, "persisted")

#: Recognised stabilization engines, in documentation order (the classes
#: live in ``repro.core.strategy``, which re-exports this tuple).
STRATEGY_NAMES = ("acktable", "sequencer")


class StabilizerConfig:
    """Per-node configuration; see module docstring.

    Parameters
    ----------
    node_names:
        Every WAN node in deployment order (fixes the DSL's ``$k`` index).
    groups:
        Availability-zone name -> member node names.
    local:
        This node's name (must appear in ``node_names``).
    predicates:
        Predicate-key -> DSL source, installed at launch.
    ack_types:
        Extra application-defined stability levels beyond the built-in
        ``received`` and ``persisted`` (e.g. ``verified``).
    chunk_bytes:
        Data-plane split threshold (the paper uses 8 KB).
    control_interval_s / control_batch:
        Control-plane report batching: a report is flushed at least every
        ``control_interval_s`` seconds or after ``control_batch`` newly
        acknowledged messages, whichever comes first.
    control_fanout:
        Accepted (``"all"`` or ``"origin"``), validated and round-tripped
        through :meth:`to_dict` / :meth:`replace` for saved configs — and
        without effect.  Report fan-out is derived from demand: a report
        about an origin goes to the peers that observe it (see
        :class:`~repro.core.strategy.AckTableStrategy`), of which the two
        old settings were the hand-set extremes.
    frame_bytes:
        WAN frame coalescing threshold: sequenced messages accumulate
        into one transport frame until the frame reaches this size.
        ``None`` disables coalescing — every message rides its own frame.
    max_buffer_bytes:
        Bound on the retained send buffer (``None``: unbounded).  A
        ``send()`` that would overflow it raises
        :class:`~repro.errors.BackpressureError` before sequencing; the
        backpressure callbacks / ``waitfor_capacity()`` tell the producer
        when to resume.
    failure_timeout_s:
        Silence threshold after which a peer is suspected (Section III-E's
        "predicate update timer").
    max_retransmit_attempts:
        Transport channels give up after this many consecutive
        unproductive retransmissions and report the peer dead to the
        failure detector (the paper's "data transmission failure
        information").  ``None`` retries forever (the pre-robustness
        behaviour).
    transport_max_rto_s:
        Ceiling of the adaptive (Jacobson/Karn) retransmission timeout;
        its floor is the transport's
        :data:`~repro.transport.fifo.MIN_RTO_S`.
    durability:
        When True the node runs a :class:`~repro.core.durability.DurabilityManager`
        and ``persisted`` stability is only ever reported after a
        successful fsync of the covering WAL group commit.  When False
        (the default) nothing grants ``persisted`` but the completeness
        rule — the origin's own row, at the origin and wherever its
        stream is delivered; a receiver's own cell moves only when the
        application calls ``report_stability("persisted", ...)``.
    durability_group_commit_interval_s / durability_group_commit_batch:
        Group-commit policy: the WAL fsyncs at least every
        ``interval_s`` seconds of pending writes, or as soon as
        ``batch`` records are staged, whichever comes first.
    durability_segment_bytes:
        WAL segment rotation threshold (checked after each commit).
    durability_dir:
        Directory (inside the node's filesystem namespace) holding the
        WAL segments and manifest.
    shard_count / shard_replication / shard_owners:
        Key-space partitioning (ROADMAP item 1).  Keys hash into
        ``shard_count`` shards; each shard is owned by
        ``shard_replication`` rendezvous-chosen nodes (``None`` = every
        node owns every shard), or by the explicit ``shard_owners``
        mapping (``{shard_id: [names]}``).  A node allocates ACK tables,
        frontier engines, and predicate registries only for the shards it
        owns — see :class:`~repro.core.sharding.ShardedStabilizer`.  The
        default (1 shard, full replication) is the classic unsharded
        deployment.
    shard_id:
        Set only on *shard-view* configs produced by :meth:`shard_view`:
        marks this config as the single-shard slice a per-shard inner
        stabilizer runs on.  Shard views get their own transport port
        (:meth:`transport_port`) and a shard-scoped DSL context.
    shard_epoch:
        The membership epoch this config's shard layout belongs to
        (``ShardMap`` epoch).  Every data/control frame a shard stack
        sends is stamped with the epoch of the map the stack was built
        from; receivers drop mismatched frames (*epoch fencing*) so a
        node still running a superseded layout cannot corrupt ACK rows.
        The initial deployment is epoch 0; each rebalance cutover bumps
        it (see :mod:`repro.core.rebalance`).
    stabilization_strategy:
        The stabilization engine (``docs/strategies.md``):
        ``"acktable"`` (the paper's per-cell ACK streaming, the default)
        or ``"sequencer"`` (deferred-update stabilization through one
        sequencer node).  Every node of a deployment must run the same
        engine — they speak different control protocols.
    """

    def __init__(
        self,
        node_names: Sequence[str],
        groups: Dict[str, Sequence[str]],
        local: str,
        predicates: Optional[Dict[str, str]] = None,
        ack_types: Sequence[str] = (),
        chunk_bytes: int = 8 * 1024,
        control_interval_s: float = 0.005,
        control_batch: int = 16,
        control_fanout: str = "all",
        failure_timeout_s: float = 5.0,
        max_buffer_bytes: Optional[int] = None,
        frame_bytes: Optional[int] = 32 * 1024,
        max_retransmit_attempts: Optional[int] = 8,
        transport_max_rto_s: float = 5.0,
        durability: bool = False,
        durability_group_commit_interval_s: float = 0.005,
        durability_group_commit_batch: int = 32,
        durability_segment_bytes: int = 64 * 1024,
        durability_dir: str = "wal",
        shard_count: int = 1,
        shard_replication: Optional[int] = None,
        shard_owners: Optional[Dict] = None,
        shard_id: Optional[int] = None,
        shard_epoch: int = 0,
        stabilization_strategy: str = "acktable",
    ):
        if local not in node_names:
            raise ConfigError(f"local node {local!r} not in node list")
        if len(set(node_names)) != len(node_names):
            raise ConfigError("duplicate node names")
        if chunk_bytes <= 0:
            raise ConfigError("chunk_bytes must be positive")
        if control_interval_s <= 0 or control_batch <= 0:
            raise ConfigError("control batching parameters must be positive")
        if control_fanout not in ("all", "origin"):
            raise ConfigError("control_fanout must be 'all' or 'origin'")
        if failure_timeout_s <= 0:
            raise ConfigError("failure_timeout_s must be positive")
        if frame_bytes is not None and frame_bytes <= 0:
            raise ConfigError("frame_bytes must be positive or None")
        if max_retransmit_attempts is not None and max_retransmit_attempts <= 0:
            raise ConfigError("max_retransmit_attempts must be positive or None")
        if transport_max_rto_s < MIN_RTO_S:
            raise ConfigError(f"transport_max_rto_s must be at least {MIN_RTO_S}")
        if durability_group_commit_interval_s <= 0:
            raise ConfigError("durability_group_commit_interval_s must be positive")
        if durability_group_commit_batch <= 0:
            raise ConfigError("durability_group_commit_batch must be positive")
        if durability_segment_bytes <= 0:
            raise ConfigError("durability_segment_bytes must be positive")
        if not durability_dir:
            raise ConfigError("durability_dir must be non-empty")
        for name in ack_types:
            if name in BUILTIN_TYPES:
                raise ConfigError(f"ack type {name!r} is built in")
        if len(set(ack_types)) != len(ack_types):
            raise ConfigError("duplicate ack types")
        if shard_count <= 0:
            raise ConfigError("shard_count must be positive")
        if shard_replication is not None and not 1 <= shard_replication <= len(
            node_names
        ):
            raise ConfigError(
                f"shard_replication {shard_replication} outside 1..{len(node_names)}"
            )
        if shard_id is not None and shard_id < 0:
            raise ConfigError("shard_id must be non-negative")
        if shard_epoch < 0:
            raise ConfigError("shard_epoch must be non-negative")
        if stabilization_strategy not in STRATEGY_NAMES:
            raise ConfigError(
                f"unknown stabilization strategy {stabilization_strategy!r}; "
                f"known: {', '.join(STRATEGY_NAMES)}"
            )

        self.node_names = list(node_names)
        # name -> row index, built once: ``node_index`` runs on every
        # delivery and every control frame.
        self._node_indices = {name: i for i, name in enumerate(self.node_names)}
        self.groups = {g: list(m) for g, m in groups.items()}
        self.local = local
        self.predicates = dict(predicates or {})
        self.ack_types = list(ack_types)
        self.chunk_bytes = chunk_bytes
        self.control_interval_s = control_interval_s
        self.control_batch = control_batch
        self.control_fanout = control_fanout
        self.failure_timeout_s = failure_timeout_s
        self.max_buffer_bytes = max_buffer_bytes
        self.frame_bytes = frame_bytes
        self.max_retransmit_attempts = max_retransmit_attempts
        self.transport_max_rto_s = transport_max_rto_s
        self.durability = durability
        self.durability_group_commit_interval_s = durability_group_commit_interval_s
        self.durability_group_commit_batch = durability_group_commit_batch
        self.durability_segment_bytes = durability_segment_bytes
        self.durability_dir = durability_dir
        self.shard_count = shard_count
        self.shard_replication = shard_replication
        self.shard_owners = (
            {int(k): list(v) for k, v in shard_owners.items()}
            if shard_owners is not None
            else None
        )
        self.shard_id = shard_id
        self.shard_epoch = int(shard_epoch)
        self.stabilization_strategy = stabilization_strategy
        self._shard_map = None
        if self.shard_owners is not None:
            self.shard_map()  # validate the explicit assignment eagerly

    # -- derived views ----------------------------------------------------------
    @property
    def local_index(self) -> int:
        return self._node_indices[self.local]

    def node_count(self) -> int:
        return len(self.node_names)

    def node_index(self, name: str) -> int:
        try:
            return self._node_indices[name]
        except KeyError:
            raise ConfigError(f"unknown node {name!r}") from None

    def remote_names(self) -> List[str]:
        return [n for n in self.node_names if n != self.local]

    def type_names(self) -> List[str]:
        """All stability-type names, in column order."""
        return list(BUILTIN_TYPES) + list(self.ack_types)

    def type_ids(self) -> Dict[str, int]:
        return {name: i for i, name in enumerate(self.type_names())}

    def dsl_context(self) -> DslContext:
        """The context predicates are expanded against at this node.

        Shard scope: on a shard view (``shard_id`` set) — or in the
        degenerate single-shard deployment — every node in the config
        *is* a shard owner, so ``$SHARDNODES``/``$SHARDWNODES`` resolve
        to all of them.  On a multi-shard global config there is no
        single shard to scope to, and the macros are rejected at compile
        time instead of silently meaning "all nodes".
        """
        if self.shard_id is not None or self.shard_count == 1:
            shard_nodes = tuple(range(len(self.node_names)))
        else:
            shard_nodes = None
        return DslContext(
            self.node_names,
            self.groups,
            self.local,
            types=self.type_ids(),
            shard_nodes=shard_nodes,
        )

    # -- sharding ---------------------------------------------------------------
    def shard_map(self):
        """The deployment's :class:`~repro.core.membership.ShardMap`
        (cached; rebuilt only via :meth:`replace`)."""
        if self._shard_map is None:
            from repro.core.membership import ShardMap

            self._shard_map = ShardMap(
                self.node_names,
                shard_count=self.shard_count,
                replication=self.shard_replication,
                owners=self.shard_owners,
                epoch=self.shard_epoch,
            )
        return self._shard_map

    def shard_view(self, shard: int) -> "StabilizerConfig":
        """The single-shard config slice an inner per-shard stabilizer
        runs on: ``node_names`` shrinks to the shard's owner set (in
        deployment order, so ACK-table rows stay aligned across owners),
        groups are restricted to owners, and the view gets its own
        transport port and durability directory.  The local node must
        own the shard.
        """
        owners = self.shard_map().owners(shard)
        if self.local not in owners:
            raise ConfigError(
                f"node {self.local!r} does not own shard {shard} "
                f"(owners: {', '.join(owners)})"
            )
        groups = {}
        for group, members in self.groups.items():
            kept = [m for m in members if m in owners]
            if kept:
                groups[group] = kept
        return StabilizerConfig(
            **{
                **self.to_dict(),
                "node_names": list(owners),
                "groups": groups,
                "shard_count": 1,
                "shard_replication": None,
                "shard_owners": None,
                "shard_id": shard,
                "durability_dir": f"{self.durability_dir}/s{shard}",
            }
        )

    def transport_port(self) -> str:
        """The network port this node's endpoint binds: the classic
        ``"transport"`` port, or a per-shard port on shard views so the
        per-shard stacks coexist on one host."""
        from repro.transport.endpoint import TRANSPORT_PORT

        if self.shard_id is None:
            return TRANSPORT_PORT
        return f"{TRANSPORT_PORT}.s{self.shard_id}"

    def for_node(self, local: str) -> "StabilizerConfig":
        """The same deployment config, viewed from another node."""
        return self.replace(local=local)

    def replace(self, **changes) -> "StabilizerConfig":
        """A copy with the given fields changed; validation re-runs."""
        data = self.to_dict()
        for key in changes:
            if key not in data:
                raise ConfigError(f"unknown config field {key!r}")
        data.update(changes)
        return type(self)(**data)

    def channel_kwargs(self) -> dict:
        """Transport-channel options the Stabilizer planes create channels
        with (first creation wins; data and control planes share them)."""
        return {
            "max_retransmit_attempts": self.max_retransmit_attempts,
            "max_rto": self.transport_max_rto_s,
        }

    # -- (de)serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "node_names": list(self.node_names),
            "groups": {g: list(m) for g, m in self.groups.items()},
            "local": self.local,
            "predicates": dict(self.predicates),
            "ack_types": list(self.ack_types),
            "chunk_bytes": self.chunk_bytes,
            "control_interval_s": self.control_interval_s,
            "control_batch": self.control_batch,
            "control_fanout": self.control_fanout,
            "failure_timeout_s": self.failure_timeout_s,
            "max_buffer_bytes": self.max_buffer_bytes,
            "frame_bytes": self.frame_bytes,
            "max_retransmit_attempts": self.max_retransmit_attempts,
            "transport_max_rto_s": self.transport_max_rto_s,
            "durability": self.durability,
            "durability_group_commit_interval_s": self.durability_group_commit_interval_s,
            "durability_group_commit_batch": self.durability_group_commit_batch,
            "durability_segment_bytes": self.durability_segment_bytes,
            "durability_dir": self.durability_dir,
            "shard_count": self.shard_count,
            "shard_replication": self.shard_replication,
            "shard_owners": (
                {str(k): list(v) for k, v in self.shard_owners.items()}
                if self.shard_owners is not None
                else None
            ),
            "shard_id": self.shard_id,
            "shard_epoch": self.shard_epoch,
            "stabilization_strategy": self.stabilization_strategy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StabilizerConfig":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"malformed config dict: {exc}") from exc

    @classmethod
    def from_topology(cls, topology, local: str, **kwargs) -> "StabilizerConfig":
        """Derive deployment facts from a :class:`~repro.net.Topology`."""
        return cls(
            node_names=topology.node_names(),
            groups=topology.groups(),
            local=local,
            **kwargs,
        )
