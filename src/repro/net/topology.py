"""Topology declaration and the live network it builds.

A :class:`Topology` is pure data: nodes, their named groups (the paper's
availability zones / regions), and per-directed-pair shaping specs.
``build(sim, rng)`` instantiates :class:`Network` — live links and hosts on
a simulator.  Keeping declaration separate from instantiation lets one
preset (e.g. the Table I EC2 emulation) drive many experiments.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigError, NetworkError
from repro.net.host import Host
from repro.net.link import Link
from repro.net.tc import NetemSpec
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


class NodeSpec:
    """One WAN node: a data center in the paper's terminology."""

    __slots__ = ("name", "group", "index")

    def __init__(self, name: str, group: str, index: int):
        self.name = name
        self.group = group
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodeSpec {self.name} group={self.group} #{self.index}>"


class Topology:
    """Declarative node + link-matrix description."""

    def __init__(self, name: str = "topology"):
        self.name = name
        self.nodes: List[NodeSpec] = []
        self._by_name: Dict[str, NodeSpec] = {}
        self._links: Dict[Tuple[str, str], NetemSpec] = {}
        self.default_spec: Optional[NetemSpec] = None

    @classmethod
    def uniform(
        cls, node_groups: Mapping[str, str], link: NetemSpec, name: str = "topology"
    ) -> "Topology":
        """Every pair shaped by the one ``link``; nodes in the order of the
        ``node -> group`` mapping (insertion order is the DSL's ``$k`` index
        and the ACK-table row order)."""
        topo = cls(name)
        for node, group in node_groups.items():
            topo.add_node(node, group)
        topo.set_default(link)
        return topo

    # -- declaration -----------------------------------------------------------
    def add_node(self, name: str, group: str) -> NodeSpec:
        """Add a WAN node belonging to availability-zone/region ``group``."""
        if name in self._by_name:
            raise ConfigError(f"duplicate node name: {name}")
        spec = NodeSpec(name, group, index=len(self.nodes))
        self.nodes.append(spec)
        self._by_name[name] = spec
        return spec

    def set_link(self, src: str, dst: str, spec: NetemSpec) -> None:
        """Shape the directed link ``src -> dst``."""
        self._require(src)
        self._require(dst)
        if src == dst:
            raise ConfigError("no self links")
        self._links[(src, dst)] = spec

    def set_link_symmetric(self, a: str, b: str, spec: NetemSpec) -> None:
        """Shape both directions identically (the common WAN assumption)."""
        self.set_link(a, b, spec)
        self.set_link(b, a, spec)

    def set_default(self, spec: NetemSpec) -> None:
        """Fallback shaping for pairs without an explicit link entry."""
        self.default_spec = spec

    # -- queries ---------------------------------------------------------------
    def node(self, name: str) -> NodeSpec:
        return self._require(name)

    def node_names(self) -> List[str]:
        return [n.name for n in self.nodes]

    def groups(self) -> Dict[str, List[str]]:
        """Group name -> member node names, in declaration order."""
        out: Dict[str, List[str]] = {}
        for node in self.nodes:
            out.setdefault(node.group, []).append(node.name)
        return out

    def link_spec(self, src: str, dst: str) -> NetemSpec:
        spec = self._links.get((src, dst), self.default_spec)
        if spec is None:
            raise ConfigError(f"no link spec for {src}->{dst} and no default")
        return spec

    def _require(self, name: str) -> NodeSpec:
        spec = self._by_name.get(name)
        if spec is None:
            raise ConfigError(f"unknown node: {name}")
        return spec

    # -- instantiation -----------------------------------------------------------
    def build(self, sim: Simulator, rng: Optional[RngRegistry] = None) -> "Network":
        """Create live hosts and links on ``sim``."""
        return Network(sim, self, rng or RngRegistry(0))


class Network:
    """A live network: hosts plus a full mesh of shaped directed links."""

    def __init__(self, sim: Simulator, topology: Topology, rng: RngRegistry):
        if len(topology.nodes) < 2:
            raise ConfigError("a network needs at least two nodes")
        self.sim = sim
        self.topology = topology
        self.hosts: Dict[str, Host] = {
            n.name: Host(n.name, n.index) for n in topology.nodes
        }
        self.links: Dict[Tuple[str, str], Link] = {}
        for src in topology.node_names():
            for dst in topology.node_names():
                if src == dst:
                    continue
                spec = topology.link_spec(src, dst)
                self.links[(src, dst)] = Link(
                    sim,
                    self.hosts[src],
                    self.hosts[dst],
                    latency_s=spec.latency_s,
                    bandwidth_bps=spec.bandwidth_bps,
                    jitter_s=spec.jitter_s,
                    loss_rate=spec.loss_rate,
                    rng=rng.stream(f"link:{src}->{dst}"),
                )

    # -- data path ---------------------------------------------------------------
    def send(self, src: str, dst: str, port: str, payload, size_bytes: int) -> bool:
        """Transmit one packet from host ``src`` to host ``dst`` over their
        link (:meth:`Link.send <repro.net.link.Link.send>`); returns False
        if nothing was sent.  A crashed sender emits nothing: that is
        checked before the destination is, so a bad destination is
        refused only once the sender is back up."""
        if src == dst:
            raise NetworkError("loopback sends are handled above the network")
        if self.host(src).crashed:
            return False
        return self.link(src, dst).send(port, payload, size_bytes)

    # -- lookups ------------------------------------------------------------------
    def host(self, name: str) -> Host:
        host = self.hosts.get(name)
        if host is None:
            raise NetworkError(f"unknown host: {name}")
        return host

    def link(self, src: str, dst: str) -> Link:
        link = self.links.get((src, dst))
        if link is None:
            raise NetworkError(f"no link {src}->{dst}")
        return link

    # -- fault injection --------------------------------------------------------------
    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Cut every link between the two node sets (both directions)."""
        for a in group_a:
            for b in group_b:
                self.link(a, b).set_up(False)
                self.link(b, a).set_up(False)

    def heal(self) -> None:
        """Bring every link back up."""
        for link in self.links.values():
            link.set_up(True)

    def crash_node(self, name: str) -> None:
        self.host(name).crash()

    def recover_node(self, name: str) -> None:
        self.host(name).recover()
