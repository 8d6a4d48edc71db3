"""Generators for the paper's standard predicates.

Table III defines six consistency models (three at region granularity,
three at WAN-node granularity).
These helpers emit the predicate *source strings* for any topology, so
applications register them through the normal DSL path — exactly how a
Stabilizer user would.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import DslSemanticError


def _normalize(name: str) -> str:
    return name.replace(" ", "_").replace("-", "_")


def remote_groups(groups: Dict[str, Sequence[str]], local: str) -> List[str]:
    """Group names that do not contain node ``local``, in declaration order."""
    remote = [g for g, members in groups.items() if local not in members]
    if len(remote) == len(groups):
        raise DslSemanticError(f"node {local!r} belongs to no group")
    return remote


def one_region(groups: Dict[str, Sequence[str]], local: str) -> str:
    """Stable once any WAN node in any *remote* region acknowledged."""
    maxes = ", ".join(f"MAX($AZ_{_normalize(g)})" for g in remote_groups(groups, local))
    return f"MAX({maxes})"


def majority_regions(groups: Dict[str, Sequence[str]], local: str) -> str:
    """Stable once a majority of the remote regions acknowledged."""
    remote = remote_groups(groups, local)
    k = len(remote) // 2 + 1
    maxes = ", ".join(f"MAX($AZ_{_normalize(g)})" for g in remote)
    return f"KTH_MAX({k}, {maxes})"


def all_regions(groups: Dict[str, Sequence[str]], local: str) -> str:
    """Stable once every remote region acknowledged."""
    maxes = ", ".join(f"MAX($AZ_{_normalize(g)})" for g in remote_groups(groups, local))
    return f"MIN({maxes})"


def one_wnode() -> str:
    """Stable once any remote WAN node acknowledged."""
    return "MAX($ALLWNODES - $MYWNODE)"


def majority_wnodes() -> str:
    """Stable once a majority (counted over all nodes) of the remote
    WAN nodes acknowledged — Table III's exact formulation."""
    return "KTH_MAX(SIZEOF($ALLWNODES)/2 + 1, ($ALLWNODES - $MYWNODE))"


def all_wnodes() -> str:
    """Stable once every remote WAN node acknowledged."""
    return "MIN($ALLWNODES - $MYWNODE)"


def standard_predicates(
    groups: Dict[str, Sequence[str]], local: str
) -> Dict[str, str]:
    """The six Table III predicates, keyed by the paper's names."""
    return {
        "OneRegion": one_region(groups, local),
        "MajorityRegions": majority_regions(groups, local),
        "AllRegions": all_regions(groups, local),
        "OneWNode": one_wnode(),
        "MajorityWNodes": majority_wnodes(),
        "AllWNodes": all_wnodes(),
    }


# -- shard-scoped variants ---------------------------------------------------
#
# Under partial replication (ROADMAP item 1) only a shard's owner set ever
# acknowledges its keys, so node-granularity predicates must count over
# $SHARDWNODES, not $ALLWNODES — an AllWNodes predicate would wait forever
# on nodes that never replicate the shard.  These expand identically to
# their global cousins in the degenerate all-owners configuration, where
# $SHARDWNODES == $ALLWNODES.


def shard_one_wnode() -> str:
    """Stable once any remote shard owner acknowledged."""
    return "MAX($SHARDWNODES - $MYWNODE)"


def shard_majority_wnodes() -> str:
    """Stable once a majority (counted over the owner set) of the remote
    shard owners acknowledged."""
    return "KTH_MAX(SIZEOF($SHARDWNODES)/2 + 1, ($SHARDWNODES - $MYWNODE))"


def shard_all_wnodes() -> str:
    """Stable once every remote shard owner acknowledged."""
    return "MIN($SHARDWNODES - $MYWNODE)"


def shard_standard_predicates() -> Dict[str, str]:
    """The node-granularity Table III predicates, scoped to a shard's
    owner set.  Region-granularity variants are omitted: a shard's owner
    set may not touch every region, so their meaning is per-deployment."""
    return {
        "OneWNode": shard_one_wnode(),
        "MajorityWNodes": shard_majority_wnodes(),
        "AllWNodes": shard_all_wnodes(),
    }
