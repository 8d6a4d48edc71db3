#!/usr/bin/env python3
"""The canonical send->stable benchmark.  See perf/README.md.

    python3 perf/run.py                          # all five workloads
    python3 perf/run.py --trace 1                # ... and the per-layer pass
    python3 perf/run.py --workload wan_small     # one workload, in-process
    python3 perf/run.py --workload wan_small --trace 1

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it
each workload and pass runs in a child process of its own, one after
another, so that ``peak_rss_mb`` belongs to one workload.
"""

import argparse
import datetime
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
RESULTS_DIR = os.path.join(PERF_DIR, "results")
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def load_program():
    """Import the program from this checkout's ``src/`` and nothing else."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit("perf/run.py: no src/repro beside perf/: nothing to measure")
    # The script's own directory leaves the path: perf/trace.py would
    # otherwise shadow the standard library's ``trace``.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != PERF_DIR]
    sys.path[0:0] = [os.path.join(ROOT, "src"), ROOT]


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def check_names(bench):
    """The names this code reports are the names BENCHMARK.json declares."""
    from perf.measure import END_TO_END
    from perf.trace import PER_LAYER
    from perf.workloads import BUILDERS

    pairs = (
        ("workloads", BUILDERS),
        ("end_to_end", END_TO_END),
        ("per_layer", PER_LAYER),
    )
    for section, ours in pairs:
        theirs = [entry["name"] for entry in bench[section]]
        bad = [n for n in list(ours) + theirs if not NAME.match(n)]
        if bad or set(ours) != set(theirs) or len(theirs) != len(set(theirs)):
            sys.exit(
                f"perf/run.py: BENCHMARK.json {section} and perf/ disagree: "
                f"{sorted(set(ours) ^ set(theirs)) or bad}"
            )


def provenance(args):
    def git(*argv):
        try:
            done = subprocess.run(
                ("git",) + argv, cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def metric_table(values, specs):
    """name -> {"value", "unit"} in the declared order."""
    return {
        name: {"value": values.get(name), "unit": spec[0]}
        for name, spec in specs.items()
    }


def print_pass(record):
    from perf.measure import END_TO_END

    print(f"{record['workload']}  pass={record['pass']}  seed={record['seed']}  "
          f"scale={record['scale']}  sends={record['attempted']}  "
          f"failed={record['failed']}")
    for name, metric in record["metrics"].items():
        value = metric["value"]
        text = "null" if value is None else f"{value:.6g}"
        note = ""
        if name in END_TO_END:
            _unit, clock, statistic, _meaning = END_TO_END[name]
            note = f"{clock}, {statistic}" if clock == "count" else \
                f"{clock} time, {statistic}"
            if statistic == "median":
                count = (len(record["setup_s_samples"]) if name == "setup_s"
                         else record["repetitions"])
                note += f" of {count}"
            if name.startswith("stable_"):
                note += f", {record['samples']} samples"
        print(f"  {name:<36} {text:>12} {metric['unit']:<7} {note}")
    if record["pass"] == "end_to_end":
        factors = record["machine_factor_repetitions"]
        raw = record["raw_wall_us_per_send_repetitions"]
        if factors:
            print(f"  machine factor {min(factors):.3f}..{max(factors):.3f} "
                  f"(reference bursts against nominal); raw wall "
                  f"{min(raw):.1f}..{max(raw):.1f} us/send")
        share = record["failed"] / record["attempted"]
        print(f"  {'failed_share':<36} {share:>12.6g} {'ratio':<7} "
              "any failed send fails the workload")
        print("  generator lateness: none by construction (virtual time; a send "
              "is issued at its due time)")
    for violation in record["violations"]:
        print(f"  CHECK FAILED: {violation}")
    print(f"  checks: {'ok' if record['correct'] else 'FAILED'}")


def run_one(args):
    """One workload, one pass, in this process."""
    from perf import measure, trace

    if args.trace:
        result = trace.traced(args.workload, args.seed, args.scale)
        specs = trace.PER_LAYER
    else:
        result = measure.end_to_end(
            args.workload, args.seed, args.scale, args.seconds)
        specs = measure.END_TO_END
    values = result.pop("values")
    record = {
        "workload": args.workload,
        "pass": "trace" if args.trace else "end_to_end",
        "correct": not result["violations"],
        "metrics": metric_table(values, specs),
        "provenance": provenance(args),
        "seed": args.seed,
        "scale": args.scale,
    }
    record.update(result)
    print_pass(record)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    # The history keeps the metrics; the per-function detail stays out of it.
    line = {k: v for k, v in record.items() if k != "layers"}
    with open(os.path.join(RESULTS_DIR, "history.jsonl"), "a") as handle:
        handle.write(json.dumps(line) + "\n")
    if args.trace:
        path = os.path.join(RESULTS_DIR, f"trace_{args.workload}.json")
        with open(path, "w") as handle:
            json.dump(record, handle, indent=1)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


def run_suite(args, workloads):
    """Every workload in a child process of its own, one after another."""
    document = {"provenance": provenance(args), "claim": None, "workloads": {}}
    scratch = tempfile.mkdtemp(prefix="suite-", dir=RESULTS_DIR)
    status = 0
    try:
        for name in workloads:
            for trace_pass in ((0, 1) if args.trace else (0,)):
                out = os.path.join(scratch, f"{name}-{trace_pass}.json")
                child = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", name, "--seed", str(args.seed),
                     "--scale", str(args.scale), "--seconds", str(args.seconds),
                     "--trace", str(trace_pass), "--out", out],
                    stdout=subprocess.PIPE, text=True,
                )
                # The child's last line is for the driver; the rest is ours.
                sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n")
                status = status or child.returncode
                if os.path.exists(out):
                    with open(out) as handle:
                        record = json.load(handle)
                    record.pop("provenance")
                    document["workloads"].setdefault(name, {})[
                        record["pass"]] = record
    finally:
        shutil.rmtree(scratch)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
        print(f"wrote {args.out}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload; default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="share of each workload's sends to run")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds of timed repetitions (at least 3)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0, help="1: the per-layer pass")
    parser.add_argument("--out", help="write the full result to this file")
    args = parser.parse_args(argv)

    load_program()
    bench = declared()
    check_names(bench)
    workloads = [entry["name"] for entry in bench["workloads"]]
    if args.workload is None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        return run_suite(args, workloads)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads}")
    return run_one(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # With str hashes randomised per process, identical runs of one seed
        # differed by up to 20 % in host time; pinned, by about 2 %.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
