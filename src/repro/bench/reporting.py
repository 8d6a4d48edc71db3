"""Plain-text reporting for the benchmark harness.

Benchmarks print each regenerated table/figure as ASCII next to the
paper's reported numbers, so a reader of ``bench_output.txt`` can compare
shapes at a glance without plotting.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Mapping, Sequence, Tuple


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render an ASCII table with aligned columns."""
    rendered: List[List[str]] = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    pairs: Sequence[Tuple[float, float]],
    x_label: str = "x",
    y_label: str = "y",
    title: str = "",
    width: int = 48,
) -> str:
    """A crude ASCII rendering of one (x, y) series: rows of x, y, bar."""
    if not pairs:
        return f"{title}\n  (empty series)"
    finite = [y for _x, y in pairs if not math.isnan(y)]
    top = max(finite) if finite else 0.0
    lines = [title] if title else []
    lines.append(f"{x_label:>14}  {y_label:>12}")
    for x, y in pairs:
        if math.isnan(y):
            bar = ""
            y_text = "nan"
        else:
            bar = "#" * (int(width * y / top) if top > 0 else 0)
            y_text = _cell(y)
        lines.append(f"{_cell(x):>14}  {y_text:>12}  {bar}")
    return "\n".join(lines)


def format_counters(counters: Mapping[str, object], title: str = "") -> str:
    """Render operational counters (engine evaluations, index/short-circuit
    skips, compiler cache hits, ...) as an aligned two-column table."""
    return format_table(
        ["counter", "value"], sorted(counters.items()), title=title
    )


def ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f} ms"


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)
