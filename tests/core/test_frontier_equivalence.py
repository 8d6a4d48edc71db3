"""Randomized equivalence of the frontier engine's three ways to an answer.

The incremental engine is only allowed to *skip* work it can prove is a
no-op, so across any monotone update stream its frontiers must be
identical to an engine that fully re-evaluates every dependent predicate
on every report.  And the engine only evaluates *eagerly* where somebody
is listening, so an engine nobody listens to must still give the same
answers — frontier reads, waiter releases, and what a monitor is told
from the moment it attaches — as one with a monitor on every key, and
both must agree with the oracle ``predicate.evaluate(table)``.

The tests drive the engines through thousands of random ACK-table
updates over a mix of predicate shapes — pure ``MAX``, pure ``MIN``,
order statistics, second ACK-type columns, nested reduces with and
without constants (fixed ones and random trees) and arithmetic —
including mid-stream ``change_predicate`` redefinitions, and compare
after every single step.
"""

import random

from repro.core.acks import AckTable
from repro.core.frontier import FrontierEngine
from repro.dsl.semantics import DslContext
from repro.sim.rng import RngRegistry

NODES = ["a", "b", "c", "d", "e", "f"]
GROUPS = {"east": ["a", "b", "c"], "west": ["d", "e", "f"]}
#: "a" is the engines' local node (always observed); "d" is a remote
#: origin, observed only while a monitor or a pending waiter says so.
ORIGINS = ["a", "d"]

PREDICATE_POOL = [
    "MAX($ALLWNODES)",
    "MIN($ALLWNODES)",
    "KTH_MAX(2, $ALLWNODES)",
    "KTH_MIN(3, $ALLWNODES)",
    "MIN($AZ_east)",
    "MAX($AZ_west.persisted)",
    "KTH_MIN(2, $ALLWNODES.persisted)",
    "MIN($ALLWNODES - $MYWNODE)",
    "MAX(MIN($AZ_east), MIN($AZ_west))",
    "MAX(MIN($ALLWNODES) + 1, 1)",
    "KTH_MAX(SIZEOF($ALLWNODES)/2, $ALLWNODES)",
    "MIN($WNODE_a, $WNODE_d.persisted)",
    "KTH_MAX(2, MAX($WNODE_a, $WNODE_b), MIN($AZ_west), 3)",
    "MIN(MAX($AZ_east, 2), KTH_MIN(2, $WNODE_d, $WNODE_e.persisted, 4))",
    "MAX(MAX($WNODE_b, 1), $WNODE_f.persisted)",
]


def _nested_tree(rng, depth=3):
    """A random arithmetic-free predicate: ``MIN`` / ``MAX`` / ``KTH_*``
    over single cells, small constants and such trees, ``depth`` deep."""
    items = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if depth > 1 and roll < 0.4:
            items.append(_nested_tree(rng, depth - 1))
        elif roll < 0.55:
            items.append(str(rng.randint(0, 6)))
        else:
            suffix = ".persisted" if rng.random() < 0.3 else ""
            items.append(f"$WNODE_{rng.choice(NODES)}{suffix}")
    op = rng.choice(("MIN", "MAX", "KTH_MAX", "KTH_MIN"))
    if op.startswith("KTH"):
        items.insert(0, str(rng.randint(1, len(items))))
    return f"{op}({', '.join(items)})"


def _ignore(origin, frontier, old):
    """An explicit no-op monitor: it makes every slot of its key observed,
    so the engine under test runs (and counts) the eager path."""


def _engine(sources, incremental=True, monitor=None):
    tables = {origin: AckTable(len(NODES), 2) for origin in ORIGINS}
    engine = FrontierEngine(
        DslContext(NODES, GROUPS, "a"), tables, incremental=incremental
    )
    for i, source in enumerate(sources):
        engine.register_predicate(f"p{i}", source)
        if monitor is not None:
            engine.monitor_stability_frontier(f"p{i}", monitor)
    return engine


def _engines(sources):
    """Incremental and brute force, both listened to on every key."""
    return (
        _engine(sources, incremental=True, monitor=_ignore),
        _engine(sources, incremental=False, monitor=_ignore),
    )


def _assert_frontiers_equal(incremental, brute, step):
    for origin in ORIGINS:
        for key in incremental.predicate_keys():
            assert incremental.frontier(origin, key) == brute.frontier(
                origin, key
            ), f"step {step}: {origin}/{key} diverged"


def test_incremental_matches_brute_force_over_random_streams():
    rng = RngRegistry(1234).stream("frontier-equivalence")
    for trial in range(4):
        sources = [
            PREDICATE_POOL[rng.randrange(len(PREDICATE_POOL))]
            for _ in range(rng.randint(3, len(PREDICATE_POOL)))
        ] + [_nested_tree(rng) for _ in range(4)]
        incremental, brute = _engines(sources)
        # Attaching the monitors evaluated each remote slot once, to seed it.
        seeding = incremental.evaluations_on_read
        assert seeding == brute.evaluations_on_read == len(sources)
        values = {origin: [[0, 0] for _ in NODES] for origin in ORIGINS}
        # The full registration pass a Stabilizer performs: it establishes
        # the baseline for predicates with constant floors (e.g. ``... + 1``).
        for origin in ORIGINS:
            incremental.reevaluate(origin)
            brute.reevaluate(origin)
        for step in range(800):
            origin = ORIGINS[rng.randrange(len(ORIGINS))]
            node = rng.randrange(len(NODES))
            type_id = rng.randrange(2)
            values[origin][node][type_id] += rng.randint(1, 4)
            seq = values[origin][node][type_id]
            incremental.tables[origin].update(node, type_id, seq)
            brute.tables[origin].update(node, type_id, seq)
            advanced_inc = incremental.reevaluate(
                origin, updated_node=node, updated_cells=((type_id, seq),)
            )
            advanced_brute = brute.reevaluate(origin, updated_node=node)
            assert advanced_inc == advanced_brute, f"step {step}"
            _assert_frontiers_equal(incremental, brute, step)
            # Occasionally redefine a predicate mid-stream (the paper's
            # dynamic reconfiguration) and do the full pass a Stabilizer
            # would, on both engines.
            if rng.random() < 0.01:
                key = f"p{rng.randrange(len(sources))}"
                new_source = PREDICATE_POOL[rng.randrange(len(PREDICATE_POOL))]
                incremental.change_predicate(key, new_source)
                brute.change_predicate(key, new_source)
                for o in ORIGINS:
                    incremental.reevaluate(o)
                    brute.reevaluate(o)
                _assert_frontiers_equal(incremental, brute, step)
        # The incremental engine must actually have skipped work, not
        # just matched answers by evaluating everything.
        assert incremental.evaluations < brute.evaluations
        assert incremental.skipped_by_index + incremental.skipped_by_shortcircuit > 0
        # ... and every answer came off the eager path: with a monitor on
        # every key nothing was evaluated on read after the seeding.
        assert incremental.evaluations_on_read == seeding
        assert brute.evaluations_on_read == seeding


def _apply(table, node, entries):
    """A report's write: each cell through ``AckTable.update``; returns
    the ``(type_id, seq)`` cells that rose, for the frontier pass."""
    return [(t, s) for t, s in entries.items() if table.update(node, t, s)]


def test_batched_cell_updates_match_brute_force():
    """A multi-entry control frame applies several cells of one row at
    once; the single batched re-evaluation pass must equal brute force."""
    rng = RngRegistry(99).stream("frontier-batched")
    incremental, brute = _engines(PREDICATE_POOL)
    table_inc = incremental.tables["d"]
    table_brute = brute.tables["d"]
    incremental.reevaluate("d")
    brute.reevaluate("d")
    values = [[0, 0] for _ in NODES]
    for step in range(500):
        node = rng.randrange(len(NODES))
        entries = {}
        for type_id in range(2):
            if rng.random() < 0.8:
                values[node][type_id] += rng.randint(1, 4)
                entries[type_id] = values[node][type_id]
        if not entries:
            continue
        advanced = _apply(table_inc, node, entries)
        _apply(table_brute, node, entries)
        incremental.reevaluate("d", updated_node=node, updated_cells=advanced)
        brute.reevaluate("d", updated_node=node)
        for key in incremental.predicate_keys():
            assert incremental.frontier("d", key) == brute.frontier("d", key), (
                f"step {step}: {key} diverged"
            )
    assert incremental.evaluations < brute.evaluations


# ---------------------------------------------------------------------------
# Three ways: listened to everywhere / listened to nowhere / the oracle.
# ---------------------------------------------------------------------------

STREAMS = 200
STEPS = 120


class _Side:
    """One engine of the pair plus everything it told its listeners."""

    def __init__(self, sources, monitored):
        #: key -> [(origin, frontier, old)], in firing order.
        self.fired = {f"p{i}": [] for i in range(len(sources))}
        self.released = []  # (waiter id, step)
        self.step = 0
        self.engine = _engine(sources)
        if monitored:
            for key in self.fired:
                self.attach(key)

    def attach(self, key):
        self.engine.monitor_stability_frontier(
            key, lambda o, new, old, _k=key: self.fired[_k].append((o, new, old))
        )

    def wait(self, waiter_id, origin, key, seq):
        self.engine.add_waiter(
            origin,
            seq,
            lambda: self.released.append((waiter_id, self.step)),
            key=key,
        )


def _run_stream(seed):
    rng = random.Random(seed)
    sources = [rng.choice(PREDICATE_POOL) for _ in range(rng.randint(2, 6))]
    keys = [f"p{i}" for i in range(len(sources))]
    watched = _Side(sources, monitored=True)
    quiet = _Side(sources, monitored=False)
    sides = (watched, quiet)
    # quiet's key -> how many fires watched had made when quiet attached.
    attached_at = {}
    values = {origin: [[0, 0] for _ in NODES] for origin in ORIGINS}
    next_waiter = 0
    for side in sides:
        for origin in ORIGINS:
            side.engine.reevaluate(origin)

    def oracle(origin, key):
        return watched.engine.predicate(key).evaluate(
            watched.engine.tables[origin].table
        )

    for step in range(STEPS):
        for side in sides:
            side.step = step
        roll = rng.random()
        origin = rng.choice(ORIGINS)
        key = rng.choice(keys)
        if roll < 0.03 and key not in attached_at:
            # A monitor joins mid-stream: told of advances from here on.
            attached_at[key] = len(watched.fired[key])
            quiet.attach(key)
        elif roll < 0.10:
            # A waiter a few sequence numbers ahead (sometimes already met).
            seq = oracle(origin, key) + rng.randint(0, 6)
            for side in sides:
                side.wait(next_waiter, origin, key, seq)
            next_waiter += 1
        elif roll < 0.14:
            source = rng.choice(PREDICATE_POOL)
            for side in sides:
                side.engine.change_predicate(key, source)
                for o in ORIGINS:
                    side.engine.reevaluate(o)
        elif roll < 0.20:
            # The bulk-set path of the sequencer engine:
            # a whole column moves, then one full pass (no updated_node).
            type_id = rng.randrange(2)
            floor = min(row[type_id] for row in values[origin]) + rng.randint(1, 3)
            for node in range(len(NODES)):
                values[origin][node][type_id] = max(
                    values[origin][node][type_id], floor
                )
                for side in sides:
                    side.engine.tables[origin].update(node, type_id, floor)
            for side in sides:
                side.engine.reevaluate(origin)
        else:
            node = rng.randrange(len(NODES))
            entries = {}
            for type_id in range(2):
                if rng.random() < 0.6:
                    values[origin][node][type_id] += rng.randint(1, 4)
                    entries[type_id] = values[origin][node][type_id]
            for side in sides:
                advanced = _apply(side.engine.tables[origin], node, entries)
                if advanced:
                    side.engine.reevaluate(
                        origin, updated_node=node, updated_cells=advanced
                    )
        # Reads: both engines and the oracle agree on every slot.
        for o in ORIGINS:
            for k in keys:
                expected = oracle(o, k)
                got = (watched.engine.frontier(o, k), quiet.engine.frontier(o, k))
                assert got == (expected, expected), (
                    f"seed {seed} step {step}: {o}/{k} reads {got}, "
                    f"table says {expected}"
                )
        # Waiters: released by both engines at the same step, same order.
        assert watched.released == quiet.released, f"seed {seed} step {step}"
        assert (
            watched.engine.pending_waiters() == quiet.engine.pending_waiters()
        ), f"seed {seed} step {step}"
        # Monitors: from the moment it attached, quiet's monitor hears
        # exactly what watched's does — values, `old`, order.
        for k, start in attached_at.items():
            assert quiet.fired[k] == watched.fired[k][start:], (
                f"seed {seed} step {step}: monitor on {k} diverged"
            )
    # The gap rule, on everything any monitor was told: per slot, strictly
    # increasing, and each `old` is the previous report (the high-water
    # mark) — no monitor ever fires below it, redefinitions included.
    for side in sides:
        for k, events in side.fired.items():
            last = {}
            for o, new, old in events:
                assert new > old, f"seed {seed}: {k}@{o} fired {old}->{new}"
                if o in last:
                    assert old == last[o], (
                        f"seed {seed}: {k}@{o} fired from {old}, "
                        f"last report was {last[o]}"
                    )
                last[o] = new
    return watched.engine, quiet.engine, len(attached_at)


def test_three_way_equivalence_over_random_streams():
    """Monitors on every key vs none vs ``predicate.evaluate(table)``."""
    eager_watched = eager_quiet = late_monitors = 0
    for seed in range(STREAMS):
        watched, quiet, attached = _run_stream(seed)
        eager_watched += watched.evaluations - watched.evaluations_on_read
        eager_quiet += quiet.evaluations - quiet.evaluations_on_read
        late_monitors += attached
        # Listened to everywhere, nothing is evaluated on read beyond the
        # one seeding evaluation per remote slot when its monitor attached.
        assert watched.evaluations_on_read == len(watched.predicate_keys())
    # The streams did exercise late attachment, and listening less did
    # mean evaluating less on the update path.
    assert late_monitors > STREAMS // 2
    assert eager_quiet < eager_watched
