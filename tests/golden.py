"""Committed outcomes of the seeded runs tier-1 makes anyway.

The simulator is deterministic per seed, so a run's virtual-time and
count outcome is a fixed point of every change that claims to keep
behaviour.  A test that makes such a run hands its outcome to
:func:`check`, which compares it with ``tests/goldens/<name>.json``.
Two sets exist:

- ``perf/<workload>``: the exact metrics of the five ``perf/`` workloads
  at smoke scale (``tests/bench/test_perf_smoke.py``);
- ``chaos/<run>``: the ``virtual_view`` of every chaos run under
  ``tests/chaos/``.

``make goldens`` reruns those tests with ``REPRO_GOLDENS=write``, which
rewrites each file from the run instead of comparing.  A change that
moves an outcome then shows as ``git diff tests/goldens``, to be
explained; a change that keeps behaviour leaves that diff empty.
"""

import json
import os
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens"
WRITE = os.environ.get("REPRO_GOLDENS") == "write"
#: How many differing paths a failure names.
SHOWN = 12


def canonical(value):
    """``value`` as JSON reads it back: tuples are lists, keys strings."""
    return json.loads(json.dumps(value, sort_keys=True))


def render(value: dict) -> str:
    """One top-level key per line, so a diff names the key that moved."""
    lines = [
        f" {json.dumps(key)}: {json.dumps(item, sort_keys=True)}"
        for key, item in sorted(value.items())
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def differences(want, got, path="$"):
    """The paths at which ``got`` differs from ``want``, depth first."""
    if isinstance(want, dict) and isinstance(got, dict):
        found = []
        for key in sorted(want.keys() | got.keys()):
            if key not in got or key not in want:
                found.append(f"{path}.{key}: only in {'golden' if key in want else 'run'}")
            else:
                found += differences(want[key], got[key], f"{path}.{key}")
        return found
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: golden has {len(want)} items, run {len(got)}"]
        return [
            line
            for i, (w, g) in enumerate(zip(want, got))
            for line in differences(w, g, f"{path}[{i}]")
        ]
    return [] if want == got else [f"{path}: golden {want!r}, run {got!r}"]


def check(name: str, value: dict) -> None:
    """Hold ``value`` to the golden ``name`` (or write it, under
    ``REPRO_GOLDENS=write``)."""
    path = GOLDENS / f"{name}.json"
    got = canonical(value)
    if WRITE:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render(got), encoding="utf-8")
        return
    assert path.exists(), f"no golden {path.name}: run `make goldens`"
    found = differences(json.loads(path.read_text(encoding="utf-8")), got)
    assert not found, (
        f"the run moved golden {name} (`make goldens` rewrites it; say why "
        "in the change):\n  " + "\n  ".join(found[:SHOWN])
        + (f"\n  ... {len(found) - SHOWN} more" if len(found) > SHOWN else "")
    )
