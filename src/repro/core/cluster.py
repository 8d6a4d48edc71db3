"""Convenience builder: one Stabilizer per node of a topology.

Experiments and applications almost always want the full deployment; this
wires a :class:`~repro.core.stabilizer.Stabilizer` at every node of a
built network, sharing one deployment config.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

from repro.core.config import StabilizerConfig
from repro.core.recovery import restore_state
from repro.core.stabilizer import Stabilizer
from repro.net.topology import Network


class StabilizerCluster:
    """All nodes of one deployment, keyed by node name.

    The base of both cluster kinds: ``node_class`` is what runs at each
    node (:class:`~repro.core.sharding.ShardedCluster` sets it to
    :class:`~repro.core.sharding.ShardedStabilizer` and adds membership
    change); construction, the per-host filesystem and shared-tracer
    bookkeeping, the container protocol and the restart tail are here
    once.

    With durability enabled each node gets its own filesystem (by default
    a fresh in-memory one; ``fs_factory(name)`` overrides — chaos runs
    pass seeded fault-injecting filesystems).  Filesystems belong to the
    *host*, not the process: :meth:`restart_node` hands the same one back
    to the rebuilt node so WAL recovery reads what the crash left.
    """

    node_class = Stabilizer

    def __init__(
        self,
        net: Network,
        base_config: StabilizerConfig,
        fs_factory: Optional[Callable[[str], object]] = None,
        tracer=None,
    ):
        self.net = net
        self.sim = net.sim
        self.base_config = base_config
        # One shared tracer (or None) across every node — and across
        # restarts, so a flight recording spans incarnations.
        self.tracer = tracer
        self.filesystems: Dict[str, object] = {}
        self.nodes: Dict[str, Stabilizer] = {}
        for name in base_config.node_names:
            if fs_factory is not None:
                self.filesystems[name] = fs_factory(name)
            self._spawn(name)

    @classmethod
    def from_topology(
        cls,
        net: Network,
        local_predicates: Optional[Dict[str, str]] = None,
        **config_kwargs,
    ):
        """A cluster over ``net`` with one deployment config derived from
        its topology (what ``build_cluster`` / ``build_sharded_cluster``
        call)."""
        config = StabilizerConfig.from_topology(
            net.topology,
            local=net.topology.node_names()[0],
            predicates=local_predicates,
            **config_kwargs,
        )
        return cls(net, config)

    def _spawn(self, name: str, config: Optional[StabilizerConfig] = None, **kwargs):
        """Build ``name``'s node on its host's filesystem and the shared
        tracer, and book both (the node may have created a default
        filesystem itself)."""
        node = self.node_class(
            self.net,
            config or self.base_config.for_node(name),
            fs=self.filesystems.get(name),
            tracer=self.tracer,
            **kwargs,
        )
        self.nodes[name] = node
        self.filesystems[name] = node.fs
        return node

    def restart_node(self, name: str, snapshot: Optional[dict] = None):
        """Crash-restart ``name``: rebuild its node, restore the
        snapshot, and ask peers to replay what it missed (Section III-E).

        The caller is responsible for having closed the old instance (a
        crash does that implicitly — a crashed host's endpoint never sees
        another packet) and for having brought the host back up via
        ``net.recover_node(name)``.  With ``snapshot`` given, state is
        restored before the catch-up request goes out.
        """
        old = self.nodes.get(name)
        if old is not None:
            old.close()
        node = self._spawn(name, **self._restart_args(name, snapshot))
        if snapshot is not None:
            restore_state(node, snapshot)
        node.request_catchup()
        return node

    def _restart_args(self, name: str, snapshot: Optional[dict]) -> dict:
        """Extra :meth:`_spawn` arguments for a restart (none here)."""
        return {}

    def __getitem__(self, name: str):
        return self.nodes[name]

    def __iter__(self) -> Iterator:
        return iter(self.nodes.values())

    def __len__(self) -> int:
        return len(self.nodes)

    def close(self) -> None:
        for node in self.nodes.values():
            node.close()


def build_cluster(
    net: Network,
    local_predicates: Optional[Dict[str, str]] = None,
    **config_kwargs,
) -> StabilizerCluster:
    """Build a cluster over ``net`` with one shared deployment config."""
    return StabilizerCluster.from_topology(net, local_predicates, **config_kwargs)
