"""CLI tests: every subcommand runs and prints its report."""

import inspect

import pytest

from repro.bench.paper import experiments
from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_parser_lists_all_experiments():
    parser = build_parser()
    text = parser.format_help()
    for command in ("table1", "table2", "fig3", "fig5", "fig6", "fig7", "fig8", "microbench"):
        assert command in text


@pytest.mark.parametrize("name", sorted(experiments()))
def test_the_cli_runs_an_experiment_at_its_default_scale(name):
    """``repro <name>`` with no flags is the run the benchmarks and
    EXPERIMENTS.md quote: each keyword of the ``default`` scale is the
    value of its flag or, for a keyword with no flag, the run's own
    default."""
    exp = experiments()[name]
    args = build_parser().parse_args([name])
    cli = {arg.keyword: getattr(args, arg.keyword) for arg in exp.args}
    params = inspect.signature(exp.run).parameters
    for keyword, value in exp.scales["default"].items():
        got = cli[keyword] if keyword in cli else params[keyword].default
        if isinstance(value, (list, tuple)):
            got, value = list(got), list(value)
        assert got == value, keyword


def test_no_command_is_an_error():
    with pytest.raises(SystemExit):
        main([])


def test_table1_command(capsys):
    out = run_cli(capsys, "table1")
    assert "Table I" in out
    assert "NC-2" in out


def test_microbench_command(capsys):
    out = run_cli(capsys, "microbench", "--evals", "100")
    assert "compile ms" in out


def test_fig3_command(capsys):
    out = run_cli(capsys, "fig3", "--reads", "1")
    assert "read latency ms" in out


def test_fig6_command(capsys):
    out = run_cli(capsys, "fig6", "--max-size", "1e4")
    assert "PhxPaxos" in out
    assert "improvement" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("fig6", "--max-size", "100"),  # below the smallest file: no size left
        ("fig7", "--rates", ""),  # no rate at all
        ("fig7", "--rates", "500,-1"),
        ("fig7", "--rates", "500", "--messages", "0"),
        ("fig3", "--reads", "0"),
    ],
)
def test_unusable_arguments_are_usage_errors(capsys, argv):
    """Flags are outside input: a value the driver cannot run with is
    rejected by the parser (exit 2, a usage line), not an empty table
    or a traceback."""
    with pytest.raises(SystemExit) as raised:
        main(list(argv))
    assert raised.value.code == 2
    assert f"argument {argv[-2]}" in capsys.readouterr().err


def test_fig7_command(capsys):
    out = run_cli(capsys, "fig7", "--rates", "500", "--messages", "50")
    assert "stabilizer" in out and "pulsar" in out


def test_fig8_command(capsys):
    out = run_cli(capsys, "fig8", "--messages", "80")
    assert "all_sites" in out


def test_scenario_command(capsys, tmp_path):
    import json

    scenario = {
        "name": "cli-demo",
        "topology": {
            "nodes": [
                {"name": "a", "group": "g1"},
                {"name": "b", "group": "g2"},
            ],
            "default_link": {"latency_ms": 10, "rate_mbit": 100},
        },
        "sender": "a",
        "predicates": {"remote": "MAX($ALLWNODES - $MYWNODE)"},
        "workload": {"kind": "constant", "rate": 100, "messages": 20},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    out = run_cli(capsys, "scenario", str(path), "--out", str(tmp_path / "csv"))
    assert "cli-demo" in out
    assert "remote" in out
    assert (tmp_path / "csv" / "cli-demo_remote.csv").exists()


def test_example_scenario_file_is_valid(capsys):
    from pathlib import Path

    path = (
        Path(__file__).resolve().parents[2]
        / "examples"
        / "scenarios"
        / "two_continents.json"
    )
    out = run_cli(capsys, "scenario", str(path))
    assert "two-continents" in out
    assert "geo_safe" in out


def test_explain_command(capsys):
    out = run_cli(capsys, "explain", "MAX($ALLWNODES - $MYWNODE)")
    assert "=>" in out
    assert "ack[NC-2].received" in out
    out = run_cli(
        capsys,
        "explain",
        "MIN($ALLWNODES - $MYWNODE)",
        "--deployment",
        "cloudlab",
        "--node",
        "WI",
    )
    assert "at node WI" in out
    assert "ack[UT1].received" in out


def test_fig5_command(capsys):
    out = run_cli(capsys, "fig5", "--scale", "0.005")
    assert "Fig. 5" in out
    assert "AllWNodes" in out
