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


def test_the_record_says_fig7_is_reproduced():
    """Each of Fig. 7's findings is green above; EXPERIMENTS.md, which
    once listed three of them as red, has to say so too."""
    declared = [finding.metric for finding in experiments()["fig7"].expectations]
    record = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
    text = " ".join(record.read_text(encoding="utf-8").split())
    section = text[text.index("## Fig. 7"):text.index("## Fig. 8")]
    assert "window-bound" not in section and "xfail" not in section
    for metric in declared:
        assert f"— {metric}" in section, metric
    assert "**Reproduced.**" in section
