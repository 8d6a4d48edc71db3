"""Traffic-control shaping specs, mirroring the paper's use of Linux ``tc``.

The paper emulates EC2 WAN links by injecting latency and throttling
bandwidth with ``tc`` on a Gigabit cluster, and halves the observed
throughput "to prevent the Gigabit NIC and switch from becoming a
bottleneck".  :class:`NetemSpec` captures one such shaping rule; topology
builders attach specs to links.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

MBIT = 1_000_000.0


@dataclass(frozen=True)
class NetemSpec:
    """Shaping for one directed link, in the units the paper reports.

    ``latency_ms`` is the one-way delay; ``rate_mbit`` the bandwidth cap.
    """

    latency_ms: float
    rate_mbit: float
    jitter_ms: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ConfigError(f"negative latency: {self.latency_ms}")
        if self.rate_mbit <= 0:
            raise ConfigError(f"non-positive rate: {self.rate_mbit}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigError(f"loss rate out of range: {self.loss_rate}")

    @property
    def latency_s(self) -> float:
        return self.latency_ms / 1e3

    @property
    def jitter_s(self) -> float:
        return self.jitter_ms / 1e3

    @property
    def bandwidth_bps(self) -> float:
        return self.rate_mbit * MBIT
