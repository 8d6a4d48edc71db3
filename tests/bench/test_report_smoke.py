"""Every declared finding as a tier-1 gate: ``repro report``, one test each.

Every experiment of :func:`repro.bench.paper.experiments` — the paper's
and the repo's own — runs once at its ``report`` scale, on the
simulator, so every check is on virtual time and counts and the gate is
deterministic; each finding that is not a host-time bound is one test
id.  ``make report-smoke`` selects the module by marker; the ``wall``
findings are ``benchmarks/``' alone.  The benches that are runs of a
chaos scenario also carry that scenario's marker, so ``make
rebalance-smoke`` / ``make overload-smoke`` run a regime's chaos runs and
its bench together.
"""

import re
from pathlib import Path

import pytest

from repro.bench.paper import experiments, verdicts_for

pytestmark = pytest.mark.report_smoke

#: Red since the pipelined data plane's fixed send window (PR 5): the WAN
#: plateau is ~0.5 MB in flight, not the link (WI 105 / CLEM 88 / MA 91
#: Mbit/s against Table II's 362 / 416 / 437).  Strict, so the PR that
#: restores Fig. 7's saturation has to take them off this list.
WINDOW_BOUND = {
    ("fig7", "identical WAN throughput bottleneck"),
    ("fig7", "bottleneck close to the physical bandwidth"),
    ("fig7", "Stabilizer as fast or faster at the saturated rate"),
}


#: Experiment -> the marker of the chaos scenario it runs.
SCENARIO_MARKS = {
    "rebalance": pytest.mark.rebalance_smoke,
    "flash_crowd": pytest.mark.overload_smoke,
}


@pytest.fixture(scope="module")
def run_once():
    """``run_once(name) -> (result, {metric: Verdict})``, cached."""
    cache = {}

    def lookup(name):
        if name not in cache:
            exp = experiments()[name]
            result = exp.run(**exp.scales["report"])
            found = {v.metric: v for v in verdicts_for(name, result)}
            cache[name] = (result, found)
        return cache[name]

    return lookup


def _marks(name):
    return [SCENARIO_MARKS[name]] if name in SCENARIO_MARKS else []


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=_marks(name)) for name in experiments()]
)
def test_experiment_runs_and_prints(run_once, name):
    result, _verdicts = run_once(name)
    assert experiments()[name].render(result).strip()


def _finding(name, finding):
    marks = _marks(name)
    if (name, finding.metric) in WINDOW_BOUND:
        marks.append(pytest.mark.xfail(
            strict=True, reason="ROADMAP, restore Fig. 7's saturation: window-bound"
        ))
    slug = re.sub(r"[^A-Za-z0-9]+", "-", finding.metric).strip("-")
    return pytest.param(name, finding.metric, id=f"{name}-{slug}", marks=marks)


@pytest.mark.parametrize(
    "name, metric",
    [
        _finding(name, finding)
        for name, exp in experiments().items()
        for finding in exp.expectations
        if finding.kind != "wall"
    ],
)
def test_finding_is_reproduced(run_once, name, metric):
    verdict = run_once(name)[1][metric]
    assert verdict.holds, (
        f"paper: {verdict.paper_value}; measured: {verdict.measured_value}"
    )


def test_the_strict_xfails_name_real_findings_and_the_record_says_red():
    declared = {
        (name, finding.metric)
        for name, exp in experiments().items()
        for finding in exp.expectations
    }
    assert WINDOW_BOUND <= declared
    record = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
    text = " ".join(record.read_text(encoding="utf-8").split())
    for _name, metric in WINDOW_BOUND:
        listed = text[text.index(f"— {metric}"):][: len(metric) + 120]
        assert "window-bound, red, strict-xfailed" in listed, metric
