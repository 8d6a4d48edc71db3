"""Benchmark harness: topology presets, experiment runners, reporting.

Every table and figure of the paper's evaluation has a driver in
:mod:`repro.bench.runners` and one entry in the table of
:mod:`repro.bench.paper` saying how it runs, prints and is checked; the
CLI, the modules under ``benchmarks/`` and the tier-1 report gate all
read that entry.
"""

from repro.bench.reporting import (
    format_counters,
    format_series,
    format_table,
)
from repro.bench.topologies import (
    TABLE1_OBSERVED,
    TABLE2_OBSERVED,
    cloudlab_topology,
    ec2_topology,
)

__all__ = [
    "TABLE1_OBSERVED",
    "TABLE2_OBSERVED",
    "cloudlab_topology",
    "ec2_topology",
    "format_counters",
    "format_series",
    "format_table",
]
