"""The evaluation as one table of experiments: the paper's, and the repo's own.

An :class:`Experiment` is everything the repo says about one table,
figure, ablation, extension or subsystem bench: the driver, the CLI
flags and the scales it runs at, the one printer of its result, and the
findings about it as checks — the paper's for its tables and figures,
the repo's own claims (call budgets, trade-offs, invariants) for the
rest.  Each is declared at the end of the module of
:mod:`repro.bench.runners` that holds its driver; ``repro <name>`` and
``repro report``, the one parametrized module under ``benchmarks/`` and
the tier-1 ``report_smoke`` gate are generated from :func:`experiments`.
Three kinds of finding:

- **exact** — network-bound quantities the emulation must match within a
  tolerance (Table I/II matrices, Fig. 3/Fig. 8 latencies), and exact
  counts (Python calls, messages, events);
- **shape** — orderings and qualitative findings (who wins, what grows,
  what overlaps), which must hold even where absolute numbers are
  substrate-dependent;
- **wall** — bounds on host time (the DSL microbenchmark's, the hot
  path's latency).  They depend on the machine, so only ``benchmarks/``
  enforces them.
"""

from __future__ import annotations

from argparse import ArgumentTypeError
from typing import Callable, Dict, List, NamedTuple, Tuple


class Arg(NamedTuple):
    """One flag of an experiment's subcommand, mapped to a ``run`` keyword."""

    flag: str  # "--max-size"
    keyword: str  # the ``run`` keyword the parsed value is passed as
    # argparse ``type``: text -> the keyword's value.  Flags are outside
    # input: it raises ValueError / ArgumentTypeError on a value the
    # driver cannot run with, which argparse turns into a usage error.
    parse: Callable[[str], object]
    default: str  # as typed on the command line


def _positive(kind):
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    parse.__name__ = f"positive {kind.__name__}"  # argparse's error text
    return parse


positive_int = _positive(int)
positive_float = _positive(float)


class Expectation(NamedTuple):
    metric: str
    paper_value: str  # as reported, for display
    check: Callable[[object], Tuple[bool, str]]  # result -> (holds?, measured)
    kind: str = "shape"  # "exact" | "shape" | "wall"


def finding(metric: str, paper_value: str, kind: str = "shape"):
    """Decorator: the ``result -> (holds, measured text)`` function below
    it is the check of this finding."""
    return lambda check: Expectation(metric, paper_value, check, kind)


class Experiment(NamedTuple):
    name: str  # the CLI subcommand, and the key everywhere else
    help: str
    run: Callable[..., object]
    args: Tuple[Arg, ...]
    scales: Dict[str, dict]  # "report" | "default" | "full" -> run keywords
    render: Callable[[object], str]  # the one table/series printer
    expectations: Tuple[Expectation, ...]


class Verdict(NamedTuple):
    experiment: str
    metric: str
    paper_value: str
    measured_value: str
    kind: str
    holds: bool


def paper_experiments() -> Dict[str, Experiment]:
    """The paper's tables and figures: name -> :class:`Experiment`, in
    the paper's order."""
    # Imported here: each of these modules imports the types above.
    from repro.bench.runners import (
        fig3, fig4, fig5, fig6, fig7, fig8, microbench, network, table3,
    )

    declared = (
        network.TABLE1, network.TABLE2, table3.EXPERIMENT, fig3.EXPERIMENT,
        microbench.EXPERIMENT, fig4.EXPERIMENT, fig5.EXPERIMENT,
        fig6.EXPERIMENT, fig7.EXPERIMENT, fig8.EXPERIMENT,
    )
    return {exp.name: exp for exp in declared}


def experiments() -> Dict[str, Experiment]:
    """The table: the paper's experiments, then the repo's own —
    ablations, extensions, subsystem benches.  To add an experiment,
    declare it at the end of its driver's module and add it here."""
    from repro.bench.runners import extensions, hotpath, sharding

    ours = (
        extensions.ACK_BATCHING, extensions.CHUNK_SIZE, extensions.JIT,
        extensions.CROSS_TRAFFIC, extensions.REDBLUE, extensions.SCALABILITY,
        extensions.STRATEGIES, hotpath.HOTPATH, hotpath.DATAPLANE_PIPELINE,
        extensions.DURABILITY, hotpath.SIM_KERNEL, extensions.CHAOS,
        sharding.SHARD_SCALING, sharding.REBALANCE, sharding.FLASH_CROWD,
    )
    return {**paper_experiments(), **{exp.name: exp for exp in ours}}


#: What a check raises on a malformed result — a missing key or index, a
#: division by zero, a value of the wrong type or shape.  The finding
#: fails; the report does not crash.
MALFORMED = (LookupError, ArithmeticError, ValueError, TypeError, AttributeError)


def verdicts_for(experiment: str, result, wall: bool = False) -> List[Verdict]:
    """Evaluate every finding declared for ``experiment`` on ``result``
    (the ``wall`` ones on request)."""
    out = []
    for found in experiments()[experiment].expectations:
        if found.kind == "wall" and not wall:
            continue
        try:
            holds, measured = found.check(result)
        except MALFORMED as err:
            holds, measured = False, f"<error: {err}>"
        out.append(
            Verdict(
                experiment, found.metric, found.paper_value, measured,
                found.kind, bool(holds),
            )
        )
    return out


def assert_reproduced(exp: Experiment, result) -> None:
    """Raise ``AssertionError`` naming every finding of ``exp`` — ``wall``
    ones included — that ``result`` does not reproduce."""
    failed = [v for v in verdicts_for(exp.name, result, wall=True) if not v.holds]
    if failed:
        raise AssertionError(
            f"{exp.name}: {len(failed)} finding(s) not reproduced\n"
            + "\n".join(
                f"  {v.metric} [{v.kind}] — paper: {v.paper_value}; "
                f"measured: {v.measured_value}"
                for v in failed
            )
        )
