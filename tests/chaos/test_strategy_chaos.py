"""The strategy smoke sweep: one seeded chaos run per stabilization engine.

Marked ``strategy_smoke`` so ``make strategy-smoke`` can run exactly
this.  The safety invariants are engine-agnostic — they observe the
system through the ACK tables and application surfaces, never through
the wire protocol — so the same schedule must hold under the ACK-table
default and the sequencer.  The sweep uses the chaos harness unchanged:
crashes, restarts, AZ partitions, WAL recovery, degradation policies,
with ``MIN``-class predicates (the timing every engine supports — see
``docs/strategies.md``).
"""

import pytest

from repro.chaos import ChaosConfig, run_chaos, virtual_view
from repro.core.strategy import STRATEGY_NAMES
from tests import golden

pytestmark = pytest.mark.strategy_smoke

SEED = 11


def strategy_config(name):
    return ChaosConfig(seed=SEED, events=12, stabilization_strategy=name)


@pytest.mark.parametrize("engine", STRATEGY_NAMES)
def test_chaos_invariants_hold_under_every_engine(engine):
    report = run_chaos(strategy_config(engine))
    golden.check(f"chaos/strategy_{engine}_seed{SEED}", virtual_view(report))
    assert report["violations"] == []
    assert report["waiter_timeouts"] == 0
    kinds = {kind for _t, kind, _target in report["fired"]}
    assert "crash" in kinds and "restart" in kinds
    # Traffic converged: every origin's stream is stable everywhere,
    # whichever protocol carried the stability information.
    for node_name, per_origin in report["final_frontiers"].items():
        for origin, frontier in per_origin.items():
            if origin == node_name:
                continue
            assert frontier == report["messages_sent"][origin], (
                engine,
                node_name,
                origin,
            )


@pytest.mark.parametrize("engine", ("sequencer",))
def test_non_default_engines_are_deterministic_per_seed(engine):
    first = virtual_view(run_chaos(strategy_config(engine)))
    second = virtual_view(run_chaos(strategy_config(engine)))
    assert first == second
