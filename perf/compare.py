#!/usr/bin/env python3
"""Compare two result files of perf/run.py, metric by metric.

    python3 perf/compare.py A.json B.json [--identical]

A is the base, B the candidate.  For every workload and end-to-end metric it
prints both values, the ratio B/A, the bound and a verdict:

``ok``          B is not worse than A by more than the bound.
``regressed``   B is worse than A by more than the bound.
``unresolved``  not regressed, but the repetitions of A or of B are spread
                wider than the bound, so "unchanged" cannot be claimed.
``changed``     an exact metric differs between two runs of the same seed and
                scale, by less than the bound.  Two runs of one commit must
                not differ at all: ``--identical`` makes this fatal.

Bounds come from BENCHMARK.json; they leave room for the spread between
seeds.  Exact metrics have no such spread when seed and scale are equal, so
they are then held to 1 %.  ``setup_s`` may move by 5 ms whatever its share.
Exit status is 1 on any ``regressed``, on more failed sends, or on a run whose
output checks failed.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SAME_INPUT_BOUND = 0.01
SETUP_FLOOR_S = 0.005
SPREAD_OF = {
    "wall_us_per_send": "wall_us_per_send_repetitions",
    "setup_s": "setup_s_samples",
}


def load(path):
    """workload -> end-to-end record, from a suite file or a one-pass file."""
    with open(path) as handle:
        document = json.load(handle)
    if "workloads" in document:
        return {name: passes["end_to_end"]
                for name, passes in document["workloads"].items()
                if "end_to_end" in passes}
    if document.get("pass") == "end_to_end":
        return {document["workload"]: document}
    sys.exit(f"{path}: no end-to-end results in it")


def verdict(name, spec, a, b, same_input, exact, spreads):
    """(verdict, allowed share) for one metric of one workload."""
    bound = spec["bound"]
    if exact and same_input:
        bound = min(bound, SAME_INPUT_BOUND)
    worse = (b - a) if spec["better"] == "lower" else (a - b)
    allowed = bound * abs(a)
    if name == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    if worse > allowed:
        return "regressed", bound
    if exact and same_input:
        return ("ok" if a == b else "changed"), bound
    if any(spread > bound for spread in spreads):
        return "unresolved", bound
    return "ok", bound


def main(argv=None):
    sys.path[0:0] = [os.path.join(ROOT, "src"), ROOT]
    from perf.measure import EXACT, quartile_spread

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    parser.add_argument("--identical", action="store_true",
                        help="fail if an exact metric of equal inputs changed")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        specs = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    base, candidate = load(args.base), load(args.candidate)

    bad = 0
    for workload in base:
        if workload not in candidate:
            print(f"{workload}: missing from {args.candidate}")
            bad += 1
            continue
        a_rec, b_rec = base[workload], candidate[workload]
        same_input = (a_rec["seed"], a_rec["scale"]) == (b_rec["seed"], b_rec["scale"])
        print(f"{workload}  (seed {a_rec['seed']} -> {b_rec['seed']}, "
              f"scale {a_rec['scale']} -> {b_rec['scale']})")
        if b_rec["failed"] > a_rec["failed"] or not b_rec["correct"]:
            print(f"  failed sends {a_rec['failed']} -> {b_rec['failed']}, "
                  f"checks {'ok' if b_rec['correct'] else 'FAILED'}: regressed")
            bad += 1
        for name, spec in specs.items():
            a = a_rec["metrics"][name]["value"]
            b = b_rec["metrics"][name]["value"]
            if a is None or b is None:
                print(f"  {name:<22} missing: regressed")
                bad += 1
                continue
            spreads = [quartile_spread(rec[SPREAD_OF[name]])
                       for rec in (a_rec, b_rec) if name in SPREAD_OF]
            result, bound = verdict(
                name, spec, a, b, same_input, name in EXACT, spreads)
            if result == "regressed" or (result == "changed" and args.identical):
                bad += 1
            ratio = b / a if a else float("inf")
            print(f"  {name:<22} {a:>12.6g} -> {b:>12.6g} {spec['unit']:<6} "
                  f"x{ratio:.4f} of base {a:.6g}  bound {bound:.0%}  {result}")
    print("regressed" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
