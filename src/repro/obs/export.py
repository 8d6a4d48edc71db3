"""The live ops surface's wire formats: OpenMetrics text exposition and
JSONL time-series snapshots.

Both are hand-rolled on purpose — the repo takes no dependencies — and
both round-trip: :func:`validate_openmetrics` parses what
:func:`render_openmetrics` emits (and is what ``make trace-smoke``
holds the exposition to), and :func:`read_snapshots` reads what
:class:`SnapshotWriter` appends (and is what ``repro top`` tails).

OpenMetrics mapping: metric names are sanitized (``.`` → ``_``) under a
``repro_`` prefix, the node becomes a ``node`` label, flat stats render
as the kind :mod:`repro.obs.catalogue` declares — ``counter`` families
with a ``_total`` sample, or ``gauge`` — with its ``# HELP`` and
``# UNIT``, a key it does not declare as an untyped ``gauge``, and
histogram summaries as OpenMetrics ``summary`` families
(``_count``/``_sum`` plus ``quantile`` samples).
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.catalogue import lookup

__all__ = [
    "render_openmetrics",
    "validate_openmetrics",
    "SnapshotWriter",
    "read_snapshots",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")
# name{labels} value  — labels optional; value is any float token.
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{([^}]*)\})?"
    r" (-?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|[Ii]nf|NaN))$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_QUANTILES = (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99"))


def metric_name(raw: str, prefix: str = "repro_") -> str:
    """Sanitize a dotted stats key into a legal OpenMetrics name."""
    name = prefix + _SANITIZE_RE.sub("_", raw)
    if not _NAME_RE.match(name):
        name = prefix + "x" + _SANITIZE_RE.sub("_", raw)
    return name


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _describe(name: str, raw: str, summary: bool) -> Tuple[str, List[str]]:
    """Family ``name``'s kind and its ``# TYPE`` / ``# UNIT`` / ``# HELP``
    lines, from the catalogue row declaring ``raw``.  A key nothing
    declares — a user's own metric on the public registry — is an
    untyped ``gauge`` (or a bare ``summary``)."""
    metric = lookup(raw, histogram=summary)
    kind = "summary" if summary else "gauge" if metric is None else metric.kind
    lines = [f"# TYPE {name} {kind}"]
    if metric is not None:
        # OpenMetrics wants a family's unit to be its name's suffix, and
        # the names keep their historical spelling.
        if name.endswith("_" + metric.unit):
            lines.append(f"# UNIT {name} {metric.unit}")
        lines.append(f"# HELP {name} {_escape(metric.help)}")
    return kind, lines


def render_openmetrics(
    snapshots: Dict[str, Dict[str, object]], prefix: str = "repro_"
) -> str:
    """Render ``{node: obs_snapshot()}`` as an OpenMetrics exposition.

    Families are grouped across nodes (one ``# TYPE`` line, one sample
    per node), deterministically ordered, terminated by ``# EOF``.
    """
    scalars: Dict[str, Tuple[str, List[Tuple[str, float]]]] = {}
    summaries: Dict[str, Tuple[str, List[Tuple[str, Dict[str, float]]]]] = {}
    for node in sorted(snapshots):
        snap = snapshots[node]
        for raw, value in sorted(snap.get("metrics", {}).items()):
            try:
                value = float(value)
            except (TypeError, ValueError):
                continue
            scalars.setdefault(metric_name(raw, prefix), (raw, []))[1].append(
                (node, value)
            )
        for raw, summary in sorted(snap.get("histograms", {}).items()):
            summaries.setdefault(metric_name(raw, prefix), (raw, []))[1].append(
                (node, summary)
            )
    lines: List[str] = []
    for name in sorted(scalars):
        raw, samples = scalars[name]
        kind, metadata = _describe(name, raw, summary=False)
        lines.extend(metadata)
        sample = name + "_total" if kind == "counter" else name
        for node, value in samples:
            lines.append(f'{sample}{{node="{_escape(node)}"}} {_fmt(value)}')
    for name in sorted(summaries):
        raw, samples = summaries[name]
        lines.extend(_describe(name, raw, summary=True)[1])
        for node, summary in samples:
            label = f'node="{_escape(node)}"'
            lines.append(
                f"{name}_count{{{label}}} {_fmt(summary.get('count', 0))}"
            )
            lines.append(
                f"{name}_sum{{{label}}} {_fmt(summary.get('sum', 0.0))}"
            )
            for field, quantile in _QUANTILES:
                if field in summary:
                    lines.append(
                        f'{name}{{{label},quantile="{quantile}"}} '
                        f"{_fmt(summary[field])}"
                    )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def validate_openmetrics(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse an OpenMetrics exposition; raise ``ValueError`` on any
    malformed line.  Returns ``{family: [(labels, value), ...]}``.

    Checks the invariants a scraper relies on: legal names, ``# TYPE``
    declared once per family and before its samples, samples named after
    a declared family (modulo the ``_count``/``_sum`` summary suffixes),
    and a final ``# EOF``.
    """
    families: Dict[str, str] = {}
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    for lineno, line in enumerate(lines[:-1], 1):
        if not line:
            raise ValueError(f"line {lineno}: blank line")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP", "UNIT"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            name = parts[2]
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: bad family name {name!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: TYPE missing kind")
                if name in families:
                    raise ValueError(f"line {lineno}: duplicate TYPE {name!r}")
                families[name] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name, label_blob, value = match.groups()
        family = name
        if family not in families:
            for suffix in ("_count", "_sum", "_bucket", "_total"):
                if name.endswith(suffix) and name[: -len(suffix)] in families:
                    family = name[: -len(suffix)]
                    break
            else:
                raise ValueError(
                    f"line {lineno}: sample {name!r} has no TYPE declaration"
                )
        labels: Dict[str, str] = {}
        if label_blob:
            pos = 0
            while pos < len(label_blob):
                m = _LABEL_RE.match(label_blob, pos)
                if m is None:
                    raise ValueError(
                        f"line {lineno}: bad labels {label_blob!r}"
                    )
                labels[m.group(1)] = m.group(2)
                pos = m.end()
                if pos < len(label_blob):
                    if label_blob[pos] != ",":
                        raise ValueError(
                            f"line {lineno}: bad labels {label_blob!r}"
                        )
                    pos += 1
        samples.setdefault(family, []).append((labels, float(value)))
    return samples


class SnapshotWriter:
    """Appends timestamped metric snapshots as JSONL — the time-series
    file ``repro top`` tails.

    One record per ``append()``::

        {"ts": <virtual seconds>, "nodes": {name: obs_snapshot(), ...},
         "cluster": {...}}          # cluster block optional
    """

    def __init__(self, path):
        self.path = str(path)
        self.records = 0
        self._fh = open(self.path, "w", encoding="utf-8")

    def append(
        self,
        ts: float,
        nodes: Dict[str, Dict[str, object]],
        cluster: Optional[Dict[str, object]] = None,
    ) -> None:
        record: Dict[str, object] = {"ts": ts, "nodes": nodes}
        if cluster is not None:
            record["cluster"] = cluster
        self._fh.write(json.dumps(record, sort_keys=True, default=_json_default))
        self._fh.write("\n")
        self._fh.flush()
        self.records += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _json_default(obj):
    if obj in (float("inf"), float("-inf")) or obj != obj:
        return None
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def read_snapshots(path) -> Iterator[Dict[str, object]]:
    """Yield snapshot records from a :class:`SnapshotWriter` file."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
