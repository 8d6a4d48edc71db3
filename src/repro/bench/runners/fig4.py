"""Fig. 4: the synthetic Dropbox trace's file-size-over-time shape."""

from __future__ import annotations

from typing import Dict

from repro.bench.paper import Experiment, finding
from repro.bench.reporting import format_series
from repro.sim.monitor import Series
from repro.workloads.dropbox_trace import GIB, synthesize_trace, trace_stats

#: The published trace (scale 1): 16:40:45 -> 16:57:08, 3.87 GB, 517,294
#: messages after the 8 KB split, the dense periods made by >100 MB files.
WINDOW_S = 983
TOTAL_BYTES = 3.87 * GIB
MESSAGES = 517_294
HUGE_BYTES = 100e6
BUCKETS = 40


def run_trace_shape(scale: float = 0.25, seed: int = 7) -> Dict[str, object]:
    """Synthesize the trace at ``scale``: its summary, how many files are
    huge (above 100 MB, scaled), and the megabytes submitted per fortieth
    of the window (the Fig. 4 bars)."""
    records = synthesize_trace(scale, seed)
    width = WINDOW_S * scale / BUCKETS
    buckets: Dict[int, int] = {}
    for record in records:
        index = int(record.time_s // width)
        buckets[index] = buckets.get(index, 0) + record.size_bytes
    volume = Series("MB submitted")
    for index, size in sorted(buckets.items()):
        volume.record(index * WINDOW_S * scale / BUCKETS, size / 1e6)
    return {
        "scale": scale,
        **trace_stats(records),
        "huge_files": sum(r.size_bytes > HUGE_BYTES * scale for r in records),
        "volume": volume,
    }


def render(result) -> str:
    return "\n".join(
        [
            f"scale={result['scale']}: {int(result['files'])} sync requests, "
            f"{result['bytes'] / GIB:.3f} GiB, {int(result['messages'])} "
            f"messages after the 8 KB split, window {result['duration_s']:.0f} s",
            "paper (scale=1): 3.87 GB, 517,294 messages, 983 s window, "
            "largest files >100 MB",
            format_series(
                list(result["volume"]),
                x_label="time (s)",
                y_label="MB submitted",
                title=f"Fig. 4: sync volume over time ({BUCKETS} buckets)",
            ),
        ]
    )


@finding("trace volume", "3.87 GB (within 0.1 %, scaled)", kind="exact")
def _volume(result):
    want = TOTAL_BYTES * result["scale"]
    return abs(result["bytes"] - want) <= 0.001 * want, f"{result['bytes'] / GIB:.4f} GiB"


@finding("messages after the 8 KB split", "517,294 (within 5 %, scaled)", kind="exact")
def _messages(result):
    want = MESSAGES * result["scale"]
    return abs(result["messages"] - want) <= 0.05 * want, f"{int(result['messages'])}"


@finding("three huge files", "three files above 100 MB (scaled)", kind="exact")
def _huge(result):
    return result["huge_files"] == 3, f"{result['huge_files']}"


EXPERIMENT = Experiment(
    name="fig4",
    help="Fig. 4 Dropbox trace shape",
    run=run_trace_shape,
    args=(),
    # Below a quarter of the trace the 100 MB line, scaled, falls inside
    # the body of small files (11 "huge" files at scale 0.05).
    scales={
        "report": {"scale": 0.25},
        "default": {"scale": 0.25},
        "full": {"scale": 1.0},
    },
    render=render,
    expectations=(_volume, _messages, _huge),
)
