"""Disabled tracing must be free on the frontier hot path.

Every instrumented site guards with one ``tracer.enabled`` flag check,
so an engine wired to a *disabled* tracer must replay the hot-path
update stream with exactly the function calls of the unwired engine
(the pre-observability baseline: ``NULL_TRACER``, no advance callback):
an attribute read is not a call, an ``emit`` or an eagerly built field
is.  Calls are counted, not timed, so the result is the same on a
loaded machine.
"""

import cProfile
import gc

from repro.core.acks import AckTable
from repro.core.frontier import FrontierEngine
from repro.dsl.semantics import DslContext
from repro.obs import Tracer
from repro.sim.rng import RngRegistry

NODES = [f"n{i}" for i in range(1, 9)]
GROUPS = {"east": NODES[:4], "west": NODES[4:]}
ORIGIN = NODES[0]
PREDICATES = {
    "all": "MIN($ALLWNODES)",
    "any": "MAX($ALLWNODES)",
    "kth": "KTH_MAX(3, $ALLWNODES)",
    "per": "MIN($ALLWNODES.persisted)",
}
REPORTS = 2_000


def make_updates():
    rng = RngRegistry(0).stream("obs-overhead")
    values = [[0, 0] for _ in NODES]
    updates = []
    for _ in range(REPORTS):
        node = rng.randrange(len(NODES))
        type_id = rng.randrange(2)
        values[node][type_id] += rng.randint(1, 3)
        updates.append((node, type_id, values[node][type_id]))
    return updates


def ignore_advance(origin, frontier, old):
    """The replay's monitor: listens, does nothing."""


def make_engine(tracer=None):
    ctx = DslContext(NODES, GROUPS, ORIGIN)
    engine = FrontierEngine(ctx, {ORIGIN: AckTable(len(NODES), 2)})
    for key, source in PREDICATES.items():
        engine.register_predicate(key, source)
        # An explicit listener on every key, the same on both sides of the
        # comparison: the engine evaluates eagerly only what somebody
        # observes, and this test counts the calls of the eager path.
        engine.monitor_stability_frontier(key, ignore_advance)
    if tracer is not None:
        engine.bind_obs(tracer, ORIGIN)
    return engine


def replay(engine, updates) -> int:
    """Replay the update stream; returns the function calls it took
    (Python and builtin alike, as the profiler sees them)."""
    table = engine.tables[ORIGIN]
    engine.reevaluate(ORIGIN)
    profiler = cProfile.Profile()
    # Finalizers of earlier tests' garbage would be counted as calls.
    gc.collect()
    gc.disable()
    try:
        profiler.enable()
        for node, type_id, seq in updates:
            table.update(node, type_id, seq)
            engine.reevaluate(
                ORIGIN, updated_node=node, updated_cells=((type_id, seq),)
            )
        profiler.disable()
    finally:
        gc.enable()
    # Not pstats: it keys by (file, line, name), so the four JIT-compiled
    # ``_predicate`` bodies overwrite each other there.
    return sum(entry.callcount for entry in profiler.getstats())


def test_disabled_tracing_adds_no_calls():
    updates = make_updates()
    baseline = replay(make_engine(), updates)
    wired = replay(make_engine(Tracer(enabled=False)), updates)
    assert wired == baseline, (
        f"disabled tracing costs {wired - baseline} extra calls over "
        f"{baseline} on the frontier hot path"
    )
    # The count does see instrumentation: switched on, it shows up.
    tracing = Tracer(enabled=True)
    assert replay(make_engine(tracing), updates) > baseline
    assert tracing.emitted > 0


def test_wired_engine_matches_baseline_frontiers():
    updates = make_updates()
    a = make_engine()
    b = make_engine(Tracer(enabled=False))
    replay(a, updates)
    replay(b, updates)
    for key in PREDICATES:
        assert a.frontier(ORIGIN, key) == b.frontier(ORIGIN, key)
