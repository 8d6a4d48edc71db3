"""Workload generators for the evaluation.

The paper drives its Dropbox-like experiment with a proprietary trace from
six real cloud storage services (IMC'14 [33]); we cannot redistribute it,
so :mod:`repro.workloads.dropbox_trace` synthesizes a trace matching every
published property (window, volume, message count, huge-file spikes — see
DESIGN.md).  :mod:`repro.workloads.rates` provides the open-loop
constant-rate senders of the pub/sub experiments, and
:mod:`repro.workloads.filesizes` the heavy-tailed size distributions.
"""

from repro.workloads.dropbox_trace import (
    TraceRecord,
    synthesize_trace,
    trace_stats,
)
from repro.workloads.filesizes import bounded_lognormal
from repro.workloads.rates import (
    FlashCrowdShape,
    constant_rate,
    poisson_rate,
)

__all__ = [
    "FlashCrowdShape",
    "TraceRecord",
    "bounded_lognormal",
    "constant_rate",
    "poisson_rate",
    "synthesize_trace",
    "trace_stats",
]
