"""Command-line entry point: regenerate any paper experiment.

Usage::

    python -m repro table1
    python -m repro fig5 --scale 0.1
    python -m repro fig6 --max-size 1e7
    python -m repro fig7 --rates 250,2000,16000 --messages 2000
    python -m repro fig8
    python -m repro microbench

Each experiment subcommand is generated from the table in
:mod:`repro.bench.paper` — its flags, its driver and the one printer of
its result, which is also what the benchmark suite archives under
``benchmarks/results/``; ``report`` runs them all at the ``report`` scale
and checks the paper's findings.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.paper import experiments, paper_experiments, verdicts_for
from repro.bench.reporting import format_table
from repro.bench.topologies import (
    CLOUDLAB_SENDER,
    EC2_SENDER,
    cloudlab_topology,
    ec2_topology,
)
from repro.obs.catalogue import resolve

# Checked at import: a family `repro obs` prints but nothing declares is
# a KeyError here, not a table that is always empty.
_LAG = resolve("frontier_lag.<origin>.<type>").prefix


def _experiment_command(exp):
    """``repro <exp.name>``: run at the flags' values, print the result."""

    def command(args) -> None:
        keywords = {arg.keyword: getattr(args, arg.keyword) for arg in exp.args}
        print(exp.render(exp.run(**keywords)))

    return command


def _cmd_explain(args) -> None:
    """Show a predicate's canonical and expanded forms at one node."""
    from repro.dsl.format import describe
    from repro.dsl.semantics import DslContext

    if args.deployment == "ec2":
        topo = ec2_topology()
        local = args.node or EC2_SENDER
    else:
        topo = cloudlab_topology()
        local = args.node or CLOUDLAB_SENDER
    ctx = DslContext(topo.node_names(), topo.groups(), local)
    print(f"at node {local} ({args.deployment} deployment):")
    print(" ", describe(args.predicate, ctx))


def _cmd_scenario(args) -> None:
    """Run a declarative scenario file (see repro.bench.scenario)."""
    from repro.bench.scenario import run_scenario_file

    result = run_scenario_file(args.file, out_dir=args.out)
    print(
        f"scenario {result['name']!r}: {result['messages_sent']} messages "
        f"over {result['duration_s']:.1f} s"
    )
    rows = []
    for key, series in result["series"].items():
        rows.append(
            (
                key,
                len(series),
                f"{series.mean() * 1e3:.2f}",
                f"{series.percentile(99) * 1e3:.2f}",
                f"{series.max() * 1e3:.2f}",
            )
        )
    print(
        format_table(
            ["predicate", "covered", "mean ms", "p99 ms", "max ms"], rows
        )
    )
    if args.out:
        print(f"per-predicate CSVs written under {args.out}")


def _cmd_obs(args) -> None:
    """Run the instrumented scenario; print metrics, write traces."""
    from repro.obs.scenario import run_obs_scenario

    result = run_obs_scenario(
        nodes=args.nodes,
        messages=args.messages,
        seed=args.seed,
        durability=args.durability,
        sample_shift=args.sample_shift,
        snapshots_out=args.snapshots_out,
        slo_threshold_s=args.slo_threshold,
    )
    print(
        f"obs run: {len(result['nodes'])} nodes x "
        f"{result['messages_per_node']} messages, "
        f"{result['virtual_end_s']:.2f} s virtual"
    )
    rows = []
    for name in result["nodes"]:
        for key, s in result["stability_latency"][name].items():
            if not s["count"]:
                continue
            rows.append(
                (
                    name,
                    key,
                    int(s["count"]),
                    f"{s['mean'] * 1e3:.2f}",
                    f"{s['p50'] * 1e3:.2f}",
                    f"{s['p90'] * 1e3:.2f}",
                    f"{s['p99'] * 1e3:.2f}",
                    f"{s['max'] * 1e3:.2f}",
                )
            )
    print(
        format_table(
            ["node", "predicate", "n", "mean ms", "p50 ms", "p90 ms",
             "p99 ms", "max ms"],
            rows,
            title="send -> stable latency (per predicate key)",
        )
    )
    lag_rows = []
    for name in result["nodes"]:
        metrics = result["snapshots"][name]["metrics"]
        for metric, value in sorted(metrics.items()):
            if metric.startswith(_LAG) and value:
                lag_rows.append((name, metric[len(_LAG):], value))
    if lag_rows:
        print(format_table(
            ["node", "origin.type", "lag"], lag_rows,
            title="residual frontier lag (cells trailing the data plane)",
        ))
    tracer = result["tracer"]
    print(
        f"trace: {tracer.emitted} events emitted, "
        f"{len(tracer)} retained ({tracer.dropped} dropped by the ring)"
    )
    if args.trace_out:
        tracer.to_chrome_file(args.trace_out)
        print(f"chrome trace written to {args.trace_out} "
              "(load in chrome://tracing)")
    if args.jsonl_out:
        tracer.to_jsonl_file(args.jsonl_out)
        print(f"JSONL trace written to {args.jsonl_out}")
    if args.span_out:
        import json

        from repro.obs.spans import build_span_trees, chrome_span_trace

        trees = build_span_trees(tracer.events())
        doc = chrome_span_trace(trees)
        with open(args.span_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        print(
            f"span trace written to {args.span_out} "
            f"({doc['otherData']['sends']} sends, "
            f"{doc['otherData']['complete']} complete span trees)"
        )
    if args.openmetrics_out:
        from repro.obs.export import render_openmetrics

        text = render_openmetrics(result["snapshots"])
        with open(args.openmetrics_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"OpenMetrics exposition written to {args.openmetrics_out}")
    if args.snapshots_out:
        print(
            f"{result.get('snapshot_records', 0)} JSONL snapshots written "
            f"to {args.snapshots_out} (view with `repro top`)"
        )
    for name, alerts in (result.get("alerts") or {}).items():
        for alert in alerts:
            status = (
                "resolved" if alert["resolved_at"] is not None else "ACTIVE"
            )
            print(
                f"alert [{status}] {name}: {alert['rule']} "
                f"window={alert['window_s']} burn={alert['burn_short']:.1f}x"
            )


def _cmd_blame(args) -> None:
    """Critical-path attribution: which peer's ACK stabilized each send
    last, and which segment dominated.  Analyzes a JSONL trace file
    (``--jsonl``) or runs the instrumented scenario first."""
    from repro.obs.critpath import analyze

    if args.jsonl:
        from repro.obs.spans import load_events

        events = load_events(args.jsonl)
        source = args.jsonl
    else:
        from repro.obs.scenario import run_obs_scenario

        result = run_obs_scenario(
            nodes=args.nodes,
            messages=args.messages,
            seed=args.seed,
            durability=args.durability,
        )
        events = list(result["tracer"].events())
        source = (
            f"{len(result['nodes'])}-node scenario, "
            f"{result['virtual_end_s']:.2f} s virtual"
        )
    keys = args.keys.split(",") if args.keys else None
    table = analyze(events, keys=keys)
    print(f"critical-path attribution ({source}):")
    print(table.format(), end="")
    if table.sends and table.attribution_rate < 0.95:
        print(
            f"warning: only {table.attribution_rate:.1%} of stabilized "
            "sends attributed (sampled trace, or ring wrapped?)"
        )


def _cmd_top(args) -> None:
    """Terminal dashboard over a JSONL snapshot stream (see
    ``repro obs --snapshots-out``)."""
    from repro.obs.export import read_snapshots
    from repro.obs.top import render_top

    def frame() -> str:
        prev = last = None
        for record in read_snapshots(args.file):
            prev, last = last, record
        if last is None:
            return "repro top: no snapshot records yet\n"
        return render_top(last, prev=prev, width=args.width)

    if not args.follow:
        print(frame(), end="")
        return
    import time

    try:
        while True:
            print("\033[2J\033[H" + frame(), end="", flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass


def _cmd_overload(args) -> None:
    """One seeded overload-chaos run: flash crowds and slow nodes against
    admission control and the closed-loop SLA controller."""
    from repro.chaos import OverloadChaosConfig, run_overload_chaos

    report = run_overload_chaos(
        OverloadChaosConfig(
            seed=args.seed,
            events=args.events,
            flash_crowds=args.flash_crowds,
            slow_nodes=args.slow_nodes,
        )
    )
    print(
        format_table(
            ["event", "at (s)", "target"],
            [(kind, f"{t:.2f}", ",".join(target)) for t, kind, target in report["fired"]],
            title=f"Overload chaos, seed {report['seed']} "
            f"({report['nodes']} nodes / {report['azs']} AZs)",
        )
    )
    admission = report["admission"]
    print(
        f"\nadmission: offered={admission['admission.offered']:.0f} "
        f"admitted={admission['admission.admitted']:.0f} "
        f"shed={admission['admission.shed']:.0f} "
        f"admitted_shed={admission['admission.admitted_shed']:.0f}"
    )
    print(
        f"slacontrol: max_degrade_steps={report['max_degrade_steps']:.0f} "
        f"restored={report['restored']}"
    )
    print(
        f"checks: {report['invariant_checks']} invariant checks, "
        f"{len(report['violations'])} violations, "
        f"settled in {report['virtual_end_s']:.1f} virtual s "
        f"({report['elapsed_s']:.1f} wall s)"
    )
    if report["violations"]:
        for violation in report["violations"]:
            print(f"  VIOLATION: {violation}")
        raise SystemExit(1)


def _cmd_report(args) -> None:
    """Run every experiment at its ``report`` scale; print a verdict table
    and, on separate lines, how many of the paper's findings and of the
    repo's own claims hold."""
    verdicts = []
    for exp in experiments().values():
        keywords = dict(exp.scales["report"])
        for arg in exp.args:
            if getattr(args, arg.keyword, None) is not None:
                keywords[arg.keyword] = getattr(args, arg.keyword)
        verdicts += verdicts_for(exp.name, exp.run(**keywords))
    rows = [
        (
            v.experiment,
            v.metric,
            v.paper_value,
            v.measured_value,
            "PASS" if v.holds else "FAIL",
        )
        for v in verdicts
    ]
    print(
        format_table(
            ["experiment", "finding", "paper / claim", "measured", "verdict"],
            rows,
            title="Reproduction report: declared findings vs this run",
        )
    )
    paper = paper_experiments().keys()
    print()
    for label, names in (("paper", paper), ("repo", experiments().keys() - paper)):
        counted = [v for v in verdicts if v.experiment in names]
        held = sum(v.holds for v in counted)
        print(f"{held}/{len(counted)} {label} findings reproduced")
    if not all(v.holds for v in verdicts):
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for exp in experiments().values():
        command = sub.add_parser(exp.name, help=exp.help)
        for arg in exp.args:
            # argparse runs a string default through ``type`` as well.
            command.add_argument(
                arg.flag, dest=arg.keyword, type=arg.parse, default=arg.default
            )
        command.set_defaults(fn=_experiment_command(exp))
    scenario = sub.add_parser(
        "scenario", help="run a declarative scenario JSON file"
    )
    scenario.add_argument("file")
    scenario.add_argument("--out", default=None, help="directory for CSVs")
    scenario.set_defaults(fn=_cmd_scenario)
    explain = sub.add_parser(
        "explain", help="show a predicate's canonical and expanded forms"
    )
    explain.add_argument("predicate")
    explain.add_argument("--deployment", choices=("ec2", "cloudlab"), default="ec2")
    explain.add_argument("--node", default=None)
    explain.set_defaults(fn=_cmd_explain)
    obs = sub.add_parser(
        "obs",
        help="instrumented run: stability-latency histograms, frontier "
        "lags, and an exportable lifecycle trace",
    )
    obs.add_argument("--nodes", type=int, default=3)
    obs.add_argument("--messages", type=int, default=120)
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument("--durability", action="store_true")
    obs.add_argument(
        "--trace-out", default=None, help="write Chrome trace_event JSON here"
    )
    obs.add_argument(
        "--jsonl-out", default=None, help="write JSONL trace events here"
    )
    obs.add_argument(
        "--span-out", default=None,
        help="write reconstructed cross-node span trees as Chrome "
        "trace_event JSON here",
    )
    obs.add_argument(
        "--openmetrics-out", default=None,
        help="write an OpenMetrics text exposition of the final "
        "snapshots here",
    )
    obs.add_argument(
        "--snapshots-out", default=None,
        help="stream periodic JSONL metric snapshots here (repro top "
        "tails this file)",
    )
    obs.add_argument(
        "--sample-shift", type=int, default=0,
        help="keep 1/2^N of per-sequence trace events (head-based, "
        "seeded; 0 = keep all)",
    )
    obs.add_argument(
        "--slo-threshold", type=float, default=None, metavar="SECONDS",
        help="arm a multi-window burn-rate alerter over send->stable "
        "latency at this threshold",
    )
    obs.set_defaults(fn=_cmd_obs)
    blame = sub.add_parser(
        "blame",
        help="critical-path attribution: per predicate, the straggler "
        "peer and dominant segment behind send->stable latency",
    )
    blame.add_argument(
        "--jsonl", default=None,
        help="analyze this JSONL trace file instead of running the "
        "scenario",
    )
    blame.add_argument("--keys", default=None, help="comma-separated predicate keys")
    blame.add_argument("--nodes", type=int, default=3)
    blame.add_argument("--messages", type=int, default=120)
    blame.add_argument("--seed", type=int, default=0)
    blame.add_argument("--durability", action="store_true")
    blame.set_defaults(fn=_cmd_blame)
    top = sub.add_parser(
        "top",
        help="terminal dashboard over a JSONL snapshot stream "
        "(from `repro obs --snapshots-out`)",
    )
    top.add_argument("file", help="JSONL snapshot file to read")
    top.add_argument(
        "--follow", action="store_true", help="redraw as the file grows"
    )
    top.add_argument("--interval", type=float, default=1.0)
    top.add_argument("--width", type=int, default=100)
    top.set_defaults(fn=_cmd_top)
    overload = sub.add_parser(
        "overload",
        help="seeded overload chaos: flash crowds / slow nodes vs the "
        "admission gate and SLA controller (invariants 13-14)",
    )
    overload.add_argument("--seed", type=int, default=0)
    overload.add_argument("--events", type=int, default=10)
    overload.add_argument("--flash-crowds", type=int, default=1)
    overload.add_argument("--slow-nodes", type=int, default=1)
    overload.set_defaults(fn=_cmd_overload)
    rep = sub.add_parser(
        "report", help="run every checked experiment; print verdict table"
    )
    # Each overrides the ``report`` scale of the experiments that declare
    # a flag of that name (``--scale``: fig5; ``--messages``: fig7, fig8).
    declared = {a.flag: a for exp in experiments().values() for a in exp.args}
    for flag in ("--scale", "--messages"):
        arg = declared[flag]
        rep.add_argument(flag, dest=arg.keyword, type=arg.parse, default=None)
    rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
