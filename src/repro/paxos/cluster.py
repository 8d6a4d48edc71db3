"""One Paxos replica per topology node, plus submission helpers."""

from __future__ import annotations

from typing import Dict

from repro.errors import PaxosError
from repro.net.topology import Network
from repro.paxos.replica import PaxosConfig, PaxosReplica
from repro.transport.endpoint import TransportEndpoint
from repro.transport.messages import Payload

PAXOS_PORT = "paxos.transport"


class PaxosCluster:
    """All replicas of one Paxos group."""

    def __init__(
        self,
        net: Network,
        leader: str,
        window: int = 128,
    ):
        self.net = net
        self.sim = net.sim
        self.config = PaxosConfig(
            net.topology.node_names(),
            leader=leader,
            window=window,
        )
        self.replicas: Dict[str, PaxosReplica] = {}
        for name in net.topology.node_names():
            endpoint = TransportEndpoint(net, name, port=PAXOS_PORT)
            self.replicas[name] = PaxosReplica(endpoint, self.config)

    def __getitem__(self, name: str) -> PaxosReplica:
        return self.replicas[name]

    @property
    def leader(self) -> PaxosReplica:
        for replica in self.replicas.values():
            if replica.is_leader():
                return replica
        for replica in self.replicas.values():
            if replica.is_campaigning():
                return replica
        raise PaxosError("no replica currently leads")

    def submit(self, payload: Payload, meta=None):
        """Submit at the current leader."""
        return self.leader.submit(payload, meta)
