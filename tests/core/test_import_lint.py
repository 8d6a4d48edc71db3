"""Lints on the strategy layer: ``repro.core.acks`` is private to it, and
every engine has the one shape (second half of this file); the node
interface is classified once; no option and no definition exists that
only tests reach, and no config field that nothing reads.

The strategy redesign (``docs/strategies.md``) put the ACK tables behind
:class:`repro.core.strategy.StabilizationStrategy`: engines own the
tables and the wire protocol that fills them, and everything else — the
facade, frontier engine, recovery, benchmarks — goes through the
strategy interface (or the ``AckTable`` re-export on
``repro.core.strategy``).  A direct import of ``repro.core.acks``
outside that layer would quietly re-couple callers to one engine's
internals, which is exactly what the redesign removed.  This AST lint
walks the source tree and keeps the boundary real.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The strategy layer: the one place allowed to import the table module.
#: Engine modules (strategy_*.py) import AckTable via repro.core.strategy,
#: but adding one here is legitimate if an engine ever needs the module
#: directly — that is what the allowlist is for.
ALLOWED = {
    "core/strategy.py",
    "core/strategy_sequencer.py",
}

ACKS_MODULE = "repro.core.acks"


def _acks_imports(tree):
    """Yield (lineno, description) for every import that reaches the
    acks module — absolute, from-import, or ``from repro.core import
    acks``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == ACKS_MODULE or alias.name.startswith(
                    ACKS_MODULE + "."
                ):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == ACKS_MODULE or module.startswith(ACKS_MODULE + "."):
                names = ", ".join(alias.name for alias in node.names)
                yield node.lineno, f"from {module} import {names}"
            elif module == "repro.core":
                for alias in node.names:
                    if alias.name == "acks":
                        yield node.lineno, "from repro.core import acks"


def test_only_the_strategy_layer_imports_acks():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in ALLOWED or rel == "core/acks.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for lineno, description in _acks_imports(tree):
            violations.append(f"{rel}:{lineno} {description}")
    assert not violations, (
        "repro.core.acks is private to the strategy layer — import "
        "AckTable from repro.core.strategy instead:\n  "
        + "\n  ".join(violations)
    )


def test_the_strategy_module_still_owns_the_tables():
    """The allowlist must not rot: the strategy module really does import
    the table implementation (if that moves, move the lint with it)."""
    tree = ast.parse((SRC / "core" / "strategy.py").read_text(encoding="utf-8"))
    assert list(_acks_imports(tree)), "core/strategy.py no longer imports acks"


def test_lint_catches_each_import_shape():
    """The lint itself must not be vacuous."""
    for source in (
        "import repro.core.acks",
        "import repro.core.acks as acks",
        "from repro.core.acks import AckTable",
        "from repro.core import acks",
    ):
        assert list(_acks_imports(ast.parse(source))), source
    assert not list(
        _acks_imports(ast.parse("from repro.core.strategy import AckTable"))
    )


# ---------------------------------------------------------------------------
# One engine shape: the carrier is composed, the grant path is inherited.
# ---------------------------------------------------------------------------


def _classes(tree):
    """Yield (ClassDef, base names) for every class in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node, {
                base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                for base in node.bases
            }


def _shape_violations(sources):
    """``sources`` maps a label to module source.  An engine *has* a
    carrier and *inherits* ``grant_local``: flag any subclass of
    ``ControlChannelSet`` and any (transitive) subclass of
    ``StabilizationStrategy`` that defines its own ``grant_local``."""
    classes = [
        (label, node, bases)
        for label, source in sources.items()
        for node, bases in _classes(ast.parse(source))
    ]
    engines = {"StabilizationStrategy"}
    while True:
        found = {node.name for _, node, bases in classes if bases & engines}
        if found <= engines:
            break
        engines |= found
    violations = []
    for label, node, bases in classes:
        if "ControlChannelSet" in bases:
            violations.append(
                f"{label}:{node.lineno} {node.name} subclasses ControlChannelSet"
            )
        if node.name in engines and node.name != "StabilizationStrategy":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "grant_local":
                    violations.append(
                        f"{label}:{item.lineno} {node.name} defines grant_local"
                    )
    return violations


def test_engines_compose_the_carrier_and_inherit_the_grant_path():
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    # Not vacuous: the walk does see the engines it is guarding.
    assert "class AckTableStrategy(StabilizationStrategy)" in sources["core/strategy.py"]
    violations = _shape_violations(sources)
    assert not violations, (
        "engines have-a ControlChannelSet and inherit grant_local; see "
        "docs/strategies.md, 'Writing an engine':\n  " + "\n  ".join(violations)
    )


def test_shape_lint_catches_both_violations():
    violations = _shape_violations(
        {
            "plane.py": "class Plane(controlplane.ControlChannelSet): pass",
            "engine.py": (
                "class Mid(StabilizationStrategy): pass\n"
                "class Leaf(Mid):\n"
                "    def grant_local(self, origin, type_id, seq): pass\n"
            ),
        }
    )
    assert violations == [
        "plane.py:1 Plane subclasses ControlChannelSet",
        "engine.py:3 Leaf defines grant_local",
    ]
    assert not _shape_violations(
        {"ok.py": "class Engine(StabilizationStrategy):\n    def close(self): pass"}
    )


# ---------------------------------------------------------------------------
# One node interface: every public Stabilizer method is classified once in
# core/sharding.py, and the sharded node answers it the way it is classified.
# ---------------------------------------------------------------------------

CATEGORIES = ("ROUTED", "MERGED", "LIFECYCLE", "STACK_ONLY")


def _class_body(tree, name):
    return next(node.body for node, _bases in _classes(tree) if node.name == name)


def _interface_tuples(sharding_tree):
    """The four module-level tuples of ``core/sharding.py``, as name
    tuples (``STACK_ONLY`` pairs each name with its reason)."""
    found = {}
    for node in sharding_tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id in CATEGORIES:
            found[node.targets[0].id] = ast.literal_eval(node.value)
    assert all(reason for _name, reason in found["STACK_ONLY"])
    found["STACK_ONLY"] = tuple(name for name, _reason in found["STACK_ONLY"])
    return found


def _interface_violations(stabilizer_source, sharding_source):
    sharding_tree = ast.parse(sharding_source)
    categories = _interface_tuples(sharding_tree)
    public = [
        item.name
        for item in _class_body(ast.parse(stabilizer_source), "Stabilizer")
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]
    sharded = {}
    for item in _class_body(sharding_tree, "ShardedStabilizer"):
        if isinstance(item, ast.FunctionDef):
            sharded[item.name] = item
        elif isinstance(item, ast.Assign):
            sharded[item.targets[0].id] = item
    violations = []
    for name in public:
        homes = [cat for cat in CATEGORIES if name in categories[cat]]
        if len(homes) != 1:
            violations.append(
                f"Stabilizer.{name} is classified {len(homes)} times "
                f"({', '.join(homes) or 'nowhere'}): name it in exactly one "
                f"of {', '.join(CATEGORIES)} in core/sharding.py"
            )
    for cat in CATEGORIES:
        for name in categories[cat]:
            if name not in public:
                violations.append(f"{cat} names {name!r}, not a public Stabilizer method")
            elif cat != "STACK_ONLY" and name not in sharded:
                violations.append(f"{cat} names {name!r} but ShardedStabilizer does not define it")
            elif cat == "STACK_ONLY" and name in sharded:
                violations.append(f"STACK_ONLY names {name!r} but ShardedStabilizer forwards it")
    return violations


def _interface_sources():
    return (
        (SRC / "core" / "stabilizer.py").read_text(encoding="utf-8"),
        (SRC / "core" / "sharding.py").read_text(encoding="utf-8"),
    )


def test_every_stabilizer_method_is_classified_once_on_the_sharded_node():
    violations = _interface_violations(*_interface_sources())
    assert not violations, (
        "see docs/sharding.md, 'The node interface':\n  " + "\n  ".join(violations)
    )


def test_interface_lint_catches_each_violation():
    stabilizer, sharding = _interface_sources()
    added = stabilizer.replace(
        "    def last_sent_seq(self)",
        "    def purge(self, seq):\n        pass\n\n    def last_sent_seq(self)",
        1,
    )
    assert _interface_violations(added, sharding) == [
        "Stabilizer.purge is classified 0 times (nowhere): name it in exactly "
        "one of ROUTED, MERGED, LIFECYCLE, STACK_ONLY in core/sharding.py"
    ]
    twice = sharding.replace('LIFECYCLE = ("close",', 'LIFECYCLE = ("stats", "close",', 1)
    assert "classified 2 times (MERGED, LIFECYCLE)" in _interface_violations(
        stabilizer, twice
    )[0]
    stale = sharding.replace('LIFECYCLE = ("close",', 'LIFECYCLE = ("purge", "close",', 1)
    assert _interface_violations(stabilizer, stale) == [
        "LIFECYCLE names 'purge', not a public Stabilizer method"
    ]
    undefined = sharding.replace("    def request_catchup(", "    def _request_catchup(", 1)
    assert _interface_violations(stabilizer, undefined) == [
        "LIFECYCLE names 'request_catchup' but ShardedStabilizer does not define it"
    ]
    forwarder = sharding.replace(
        "    # ------------------------------------------------------------------ stability API",
        "    def last_sent_seq(self, shard=None):\n"
        "        return self.stack(shard=shard).last_sent_seq()\n\n"
        "    # ------------------------------------------------------------------ stability API",
        1,
    )
    assert forwarder != sharding
    assert _interface_violations(stabilizer, forwarder) == [
        "STACK_ONLY names 'last_sent_seq' but ShardedStabilizer forwards it"
    ]


def test_the_interface_table_in_the_docs_is_the_lints():
    """docs/sharding.md prints the four tuples; hold the table to them."""
    docs = (SRC.parents[1] / "docs" / "sharding.md").read_text(encoding="utf-8")
    categories = _interface_tuples(ast.parse(_interface_sources()[1]))
    for cat, names in categories.items():
        label = cat.lower().replace("_", "-")
        row = next(
            (line for line in docs.splitlines() if line.startswith(f"| {label} |")),
            None,
        )
        assert row is not None, f"docs/sharding.md has no '| {label} |' row"
        listed = row.split("|")[2].replace("`", "").replace(",", " ").split()
        assert tuple(listed) == names, f"{label}: docs list {listed}, lint has {names}"


# ---------------------------------------------------------------------------
# One way to open a channel: a name gets its consumer and options once, in
# TransportEndpoint.accept.  Outside the transport nothing builds a
# FifoChannel and no ``.channel()`` call configures one.
# ---------------------------------------------------------------------------

ROOT = SRC.parents[1]
#: Everything that could open a channel, the transport package aside.
CHANNEL_USERS = ("src", "tests", "perf", "examples", "benchmarks")


def _channel_bypasses(tree):
    """(line, what) for every ``FifoChannel(...)`` and every ``.channel(...)``
    call that passes keyword arguments."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) == "FifoChannel":
            found.append((node.lineno, "constructs a FifoChannel"))
        elif isinstance(func, ast.Attribute) and func.attr == "channel" and node.keywords:
            found.append((node.lineno, "passes options to .channel()"))
    return found


def test_channels_open_only_through_accept():
    transport = SRC / "transport"
    violations = []
    for top in CHANNEL_USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if transport in path.parents:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            rel = path.relative_to(ROOT).as_posix()
            violations += [f"{rel}:{line} {what}" for line, what in _channel_bypasses(tree)]
    assert not violations, (
        "a channel name gets its consumer and options once, in "
        "TransportEndpoint.accept; channel(peer, name) only looks one up:\n  "
        + "\n  ".join(violations)
    )
    # Not vacuous: the endpoint is where channels are built.
    endpoint = ast.parse((transport / "endpoint.py").read_text(encoding="utf-8"))
    assert [what for _line, what in _channel_bypasses(endpoint)] == [
        "constructs a FifoChannel"
    ]


def test_channel_lint_catches_each_bypass():
    for source in (
        "FifoChannel(endpoint, peer, name, deliver)",
        "fifo.FifoChannel(endpoint, peer, name, deliver)",
        "endpoint.channel(peer, name, max_rto=0.2)",
        "node.endpoint.channel(peer, name, **options)",
    ):
        assert len(_channel_bypasses(ast.parse(source))) == 1, source
    assert not _channel_bypasses(ast.parse("endpoint.channel(peer, name).send(b'')"))
    assert not _channel_bypasses(ast.parse("endpoint.accept(name, fn, max_rto=0.2)"))


# ---------------------------------------------------------------------------
# No option only tests set: every defaulted parameter of a constructor in
# src/repro, and of a public module-level function outside repro.bench, is
# passed by some module outside tests/, or is kept configurable on purpose.
# ---------------------------------------------------------------------------

#: Where a caller that sets an option may live.
OPTION_USERS = ("src", "perf", "benchmarks", "examples")
#: The bench drivers' parameters are the scale axis of the Experiment table.
BENCH = "src/repro/bench/"
#: Options no caller outside tests/ sets, kept on purpose, with the reason.
KEPT_OPTIONS = {
    ("StabilizerConfig", "max_buffer_bytes"):
        "deployment resource size: the only bound on retained send memory",
    ("StabilizerConfig", "durability_segment_bytes"):
        "deployment resource size: the WAL segment rotation threshold",
    ("StabilizerConfig", "durability_dir"):
        "deployment path: where the WAL lives in the node's filesystem",
    ("StabilizerConfig", "shard_owners"):
        "deployment placement: an explicit shard -> owners assignment",
    ("StabilizerConfig", "shard_id"):
        "plumbing: shard_view sets it on the slice a shard stack runs on",
    ("ObjectStore", "log"):
        "deployment persistence target: the log a store recovers from",
    ("StabilizerBroker", "log"):
        "deployment persistence target: the log a broker recovers from",
    ("WanKVStore", "store"):
        "deployment persistence target: a K/V store recovered from its log",
    ("MemoryFileSystem", "injector"):
        "test fake's control: the faults the fake disk injects",
    ("ShardedStabilizer", "pending_shards"):
        "plumbing: ShardedCluster._restart_args passes it from core/sharding.py",
    ("ShardedStabilizer", "shard_epochs"):
        "plumbing: ShardedCluster._restart_args passes it from core/sharding.py",
}


def _defaulted(args, skip_self):
    """(position, name) of each parameter of ``args`` that has a default;
    keyword-only ones have no position (``None``)."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [
        (index - skip_self, arg.arg)
        for index, arg in enumerate(positional) if index >= first
    ]
    return found + [
        (None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _option_holders(tree, rel):
    """(callee name, [(position, option)]) for every class ``__init__`` in
    the module and, outside repro.bench, every public module-level
    function."""
    holders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    holders.append((node.name, _defaulted(item.args, skip_self=1)))
    if not rel.startswith(BENCH):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                holders.append((node.name, _defaulted(node.args, skip_self=0)))
    return holders


def _scoped(tree):
    """Yield ``(node, names of the defs and classes it sits in)`` for every
    node of ``tree``: a call or read of a name inside the definition of
    that name is the definition reaching itself, not a caller."""
    stack = [(tree, frozenset())]
    while stack:
        node, around = stack.pop()
        yield node, around
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            around = around | {node.name}
        stack.extend((child, around) for child in ast.iter_child_nodes(node))


def _passed(tree):
    """What ``tree`` sets: every keyword-argument name and string dict
    key, and, per callee name, the most leading positional arguments a
    call outside the callee's own definition passes (a ``*args`` sets
    nothing from where it stands)."""
    names, positional = set(), {}
    for node, around in _scoped(tree):
        if isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(
                key.value for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
        elif isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            count = next(
                (i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)),
                len(node.args),
            )
            if callee and callee not in around and count:
                positional[callee] = max(positional.get(callee, 0), count)
    return names, positional


@functools.lru_cache(maxsize=None)
def _option_scan(rel, source):
    """(option holders, what it sets) of one module; cached, since the
    self-tests rescan every module but one."""
    tree = ast.parse(source)
    holders = _option_holders(tree, rel) if rel.startswith("src/repro/") else []
    return holders, _passed(tree)


def _options_in(sources):
    """``sources`` maps a repo-relative path to module source; yields
    ``(path, callee, position, option)`` for every option under src/repro."""
    for rel, source in sources.items():
        for callee, options in _option_scan(rel, source)[0]:
            for position, option in options:
                yield rel, callee, position, option


def _unset_options(sources):
    """``callee.option`` for every option that ``KEPT_OPTIONS`` does not
    name and that nothing sets: no module but its defining one passes it
    by name, and no call outside its own definition passes it by
    position."""
    passed = {rel: _option_scan(rel, source)[1] for rel, source in sources.items()}
    unset = []
    for home, callee, position, option in _options_in(sources):
        if (callee, option) in KEPT_OPTIONS:
            continue
        if not any(
            (option in names and rel != home)
            or (position is not None and positional.get(callee, 0) > position)
            for rel, (names, positional) in passed.items()
        ):
            unset.append(f"{callee}.{option}")
    return unset


def _option_sources():
    return {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for top in OPTION_USERS
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def test_no_option_only_tests_set():
    unset = _unset_options(_option_sources())
    assert not unset, (
        "an option no caller outside tests/ sets is a branch no workload "
        "runs: make it a module constant, or name it in KEPT_OPTIONS with "
        "the deployment reason:\n  " + "\n  ".join(unset)
    )


def test_kept_options_are_real_options():
    """The exemption table must not rot: each entry is still an option,
    and each reason is a deployment setting, a test fake's control or
    plumbing."""
    options = {(callee, option) for _rel, callee, _pos, option in _options_in(_option_sources())}
    for key, reason in KEPT_OPTIONS.items():
        assert key in options, key
        assert reason.startswith(("deployment ", "test fake's control", "plumbing")), key


def test_option_lint_flags_a_planted_option():
    sources = _option_sources()
    home = "src/repro/core/slacontrol.py"
    planted = sources[home].replace(
        "        target_p99_s: float,\n    ):",
        "        target_p99_s: float,\n        planted_knob: float = 1.0,\n    ):",
        1,
    )
    assert planted != sources[home]
    assert _unset_options({**sources, home: planted}) == ["SlaController.planted_knob"]
    # A caller outside the defining module that passes it clears it.
    caller = "SlaController(node, 'k', 0.5, planted_knob=2.0)"
    assert not _unset_options({**sources, home: planted, "src/caller.py": caller})

    # Any class counts, and any public function outside repro.bench.
    home = "src/repro/net/link.py"
    planted = sources[home] + (
        "\n\nclass PlantedQueue:\n"
        "    def __init__(self, size, planted_depth=4):\n"
        "        self.depth = planted_depth\n"
        "\n\ndef planted_probe(link, planted_count=1):\n"
        "    return planted_probe(link, 2)\n"
    )
    flagged = ["PlantedQueue.planted_depth", "planted_probe.planted_count"]
    assert _unset_options({**sources, home: planted}) == flagged
    # A pass inside the definition itself sets nothing: that call above
    # passes planted_count positionally and is still flagged.
    # A positional pass from another module clears it; a *args does not.
    for caller, left in (
        ("PlantedQueue(8, 2)\nplanted_probe(link, 3)", []),
        ("PlantedQueue(8)\nplanted_probe(link, 3)", flagged[:1]),
        ("PlantedQueue(*sizes)\nplanted_probe(link, *counts)", flagged),
    ):
        extra = {home: planted, "src/caller.py": caller}
        assert _unset_options({**sources, **extra}) == left, caller
    # A bench driver's parameter is its scale axis, not an option.
    bench = "src/repro/bench/runners/planted.py"
    driver = "def run_planted(messages=800):\n    pass\n"
    assert not _unset_options({**sources, bench: driver})


# ---------------------------------------------------------------------------
# No definition only tests reach: every def and class in src/repro is read
# by some module outside tests/, or is kept on purpose.
# ---------------------------------------------------------------------------

#: Where a reader that reaches a definition may live.
DEF_USERS = ("src", "perf", "examples", "benchmarks")
#: Definitions nothing outside tests/ reaches, kept on purpose, with the
#: reason: (module under src/repro, qualified name) -> reason.
KEPT_DEFS = {
    ("dsl/stdlib.py", "shard_standard_predicates"):
        "frozen surface: named in docs/api_surface.txt",
    ("core/rebalance.py", "RebalanceCoordinator.declare_dead"):
        "fault recovery: the only way into failover re-replication",
    ("core/recovery.py", "load_snapshot"):
        "fault recovery: the read side of save_snapshot",
    ("storage/faultio.py", "MemoryFileSystem.crash_file"):
        "test fake: the fake disk's crash control",
    ("storage/faultio.py", "MemoryFileSystem.durable_bytes"):
        "test fake: what the fake disk holds past a crash",
    ("storage/faultio.py", "MemoryFileSystem.unsynced_tail_len"):
        "test fake: what the fake disk would lose in a crash",
    ("storage/faultio.py", "FaultInjector.arm_once"):
        "test fake: one injected fault at a chosen write",
    ("storage/faultio.py", "MemoryFile.seek"):
        "test fake: the only way to reach the fake's lost-range rewrite",
    ("obs/export.py", "validate_openmetrics"):
        "reference checker: what the exposition tests compare against",
    ("chaos/harness.py", "virtual_view"):
        "golden key: the chaos goldens are each run's virtual_view",
    ("chaos/rebalance.py", "run_rebalance_chaos"):
        "golden key: the handcrafted golden's file name is run.__name__",
    ("sim/kernel.py", "Simulator.pending_count"):
        "public read: tests assert through it, not the private heap",
    ("net/link.py", "Link.backlog_bytes"):
        "public read: tests assert through it, not the private counter",
    ("core/membership.py", "FailureDetector.is_suspected"):
        "public read: tests assert through it, not the private state",
    ("core/membership.py", "FailureDetector.last_heard"):
        "public read: tests assert through it, not the private state",
    ("paxos/replica.py", "PaxosReplica.inflight"):
        "public read: tests assert through it, not the private counter",
    ("obs/spans.py", "SendTrace.cross_node"):
        "public read: tests assert through it, not the span list",
    ("apps/kvstore.py", "WanKVStore.owner"):
        "public read: tests assert through it, not the private map",
    ("transport/fifo.py", "FifoChannel.srtt"):
        "public read: tests assert through it, not the private estimate",
    ("storage/objectstore.py", "ObjectStore.watch"):
        "the versioned store's watchers, in PAPER.md §2's inventory",
    ("storage/objectstore.py", "ObjectStore.get_by_time"):
        "the versioned store's time-indexed read, in PAPER.md §2's inventory",
    ("apps/kvstore.py", "WanKVStore.get_by_time"):
        "the versioned store's time-indexed read, in PAPER.md §2's inventory",
    ("storage/faultio.py", "MemoryFileSystem.clone"):
        "test fake: the fake disk's crash-point fork",
    ("storage/faultio.py", "_MemNode.clone"):
        "test fake: the fake disk's crash-point fork",
}


def _definitions(tree):
    """(qualified name, node) of every def and class in a module body and
    in class bodies, dunders aside.  A function's local helpers are its
    own business and are not listed."""
    found = []

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    found.append((prefix + node.name, node))
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try)):
                walk(node.body + node.orelse, prefix)

    walk(tree.body, "")
    return found


def _read_names(tree):
    """What ``tree`` reads, as two sets: the names of loaded bare
    ``ast.Name``s, and the names of loaded attributes and string
    constants (``getattr`` spells names that way).  An ``__all__`` entry
    is not a read, and neither is an import alias: re-exporting a name
    does not use it.  Nor is a read inside a definition of the same name:
    a method that calls its namesake on another object, or itself, is not
    reached by that call."""
    exported = {
        id(node)
        for assign in ast.walk(tree)
        if isinstance(assign, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in assign.targets)
        for node in ast.walk(assign.value)
    }
    bare, attributes = set(), set()
    for node, around in _scoped(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name, into = node.id, bare
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name, into = node.attr, attributes
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in exported
        ):
            name, into = node.value, attributes
        else:
            continue
        if name not in around:
            into.add(name)
    return bare, attributes


@functools.lru_cache(maxsize=None)
def _scan(source):
    """(bare names read, attribute names read, (qualified name, line) of
    each definition) of one module; cached, since the self-tests rescan
    every module but one."""
    tree = ast.parse(source)
    bare, attributes = _read_names(tree)
    return bare, attributes, [(name, node.lineno) for name, node in _definitions(tree)]


def _unreached(sources, kept=KEPT_DEFS):
    """``sources`` maps a repo-relative path to module source; returns
    ``(module, line, name)`` for every definition under ``src/repro``
    whose name no module reads, ``kept`` aside.  A method (a dotted
    definition) is read only as an attribute or a string: a bare name of
    the same spelling is some local variable, not the method.

    The scan is by name, so it undercounts: a definition passes as soon
    as anything outside a same-named definition reads its name — an
    unrelated method, a dict key.  ``dsl.stdlib.quorum_write`` passed
    on the ``"quorum_write"`` predicate key of ``apps/quorum.py`` and had
    to be found by hand.  A flagged definition is certainly unreached; an
    unflagged one may still be."""
    scans = {rel: _scan(source) for rel, source in sources.items()}
    bare = set().union(*(scan[0] for scan in scans.values()))
    attributes = set().union(*(scan[1] for scan in scans.values()))
    unreached = []
    for rel, (_bare, _attributes, definitions) in scans.items():
        if not rel.startswith("src/repro/"):
            continue
        module = rel[len("src/repro/"):]
        for name, line in definitions:
            owner, _dot, short = name.rpartition(".")
            read = short in attributes or (not owner and short in bare)
            if not read and (module, name) not in kept:
                unreached.append((module, line, name))
    return unreached


def _def_sources():
    return {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for top in DEF_USERS
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def test_no_definition_only_tests_reach():
    unreached = _unreached(_def_sources())
    assert not unreached, (
        "a definition only tests reach is code no workload runs: delete "
        "it (and what only it drives), or name it in KEPT_DEFS with the "
        "reason:\n  "
        + "\n  ".join(f"{module}:{line} {name}" for module, line, name in unreached)
    )


def test_kept_defs_exist_and_are_still_unreached():
    """The exemption table must not rot: each entry is still defined, and
    still unreached — an entry that gained a caller leaves the table."""
    unreached = {
        (module, name) for module, _line, name in _unreached(_def_sources(), kept={})
    }
    for module, name in KEPT_DEFS:
        assert (module, name) in unreached, (
            f"KEPT_DEFS names {module} {name}, which is gone or now reached"
        )


def test_definition_lint_flags_a_planted_definition():
    sources = _def_sources()
    home = "src/repro/core/admission.py"
    planted = sources[home] + "\n\ndef planted_helper():\n    pass\n"
    line = planted.count("\n") - 1
    flagged = [("core/admission.py", line, "planted_helper")]
    assert _unreached({**sources, home: planted}) == flagged
    # Re-exporting it is not a caller.
    export = (
        "from repro.core.admission import planted_helper\n"
        '__all__ = ["planted_helper"]\n'
    )
    assert _unreached({**sources, home: planted, "src/export.py": export}) == flagged
    # A call, or a getattr by name, is.
    for caller in ("planted_helper()", 'getattr(admission, "planted_helper")()'):
        assert not _unreached({**sources, home: planted, "src/caller.py": caller})


def test_definition_lint_ignores_a_read_inside_the_same_name():
    sources = _def_sources()
    home = "src/repro/core/admission.py"
    planted = sources[home] + (
        "\n\ndef planted_walk(node):\n"
        "    return [planted_walk(child) for child in node]\n"
    )
    line = planted.count("\n") - 1
    flagged = [("core/admission.py", line, "planted_walk")]
    # Its own body calls the same name: still unreached.
    assert _unreached({**sources, home: planted}) == flagged
    # A read from anywhere else reaches it.
    caller = "planted_walk(tree)"
    assert not _unreached({**sources, home: planted, "src/caller.py": caller})


def test_definition_lint_reads_a_method_only_as_an_attribute():
    sources = _def_sources()
    home = "src/repro/core/admission.py"
    planted = sources[home] + (
        "\n\nclass PlantedProbe:\n"
        "    def planted_depth(self):\n"
        "        return 0\n"
    )
    line = planted.splitlines().index("    def planted_depth(self):") + 1
    flagged = [("core/admission.py", line, "PlantedProbe.planted_depth")]
    # A local variable of the method's name is not the method.
    local = "planted_depth = len(PlantedProbe.__name__)\nprint(planted_depth)"
    assert _unreached({**sources, home: planted, "src/caller.py": local}) == flagged
    # An attribute load, or a getattr by name, is.
    for caller in ("PlantedProbe().planted_depth()", 'getattr(probe, "planted_depth")'):
        extra = {home: planted, "src/caller.py": f"{local}\n{caller}"}
        assert not _unreached({**sources, **extra}), caller


# ---------------------------------------------------------------------------
# No config field only its own plumbing reads: every attribute
# ``StabilizerConfig.__init__`` sets is read somewhere in src/repro outside
# ``__init__``, ``to_dict`` and ``replace`` (which copy fields, not use
# them).
# ---------------------------------------------------------------------------

CONFIG_MODULE = "src/repro/core/config.py"
#: The methods that move every field whether anything uses it or not.
CONFIG_PLUMBING = {"__init__", "to_dict", "replace"}
#: Fields nothing reads yet, to be deleted: the set only shrinks.
UNREAD_FIELDS = {"control_fanout"}


def _config_fields(tree):
    """The attributes ``StabilizerConfig.__init__`` assigns on ``self``."""
    (init,) = (
        item
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "StabilizerConfig"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    )
    return {
        node.attr
        for node in ast.walk(init)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and getattr(node.value, "id", None) == "self"
    }


@functools.lru_cache(maxsize=None)
def _attribute_reads(rel, source):
    """The attribute names one module loads, the config module's plumbing
    methods aside; cached, since the self-test rescans every module but
    one."""
    return {
        node.attr
        for node, around in _scoped(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and not (rel == CONFIG_MODULE and around & CONFIG_PLUMBING)
    }


def _unread_fields(sources):
    """Fields of ``StabilizerConfig`` no attribute read under src/repro
    reaches.  By name, like the definition lint: a read of a same-named
    attribute of anything counts."""
    read = set().union(
        *(
            _attribute_reads(rel, source)
            for rel, source in sources.items()
            if rel.startswith("src/repro/")
        )
    )
    return _config_fields(ast.parse(sources[CONFIG_MODULE])) - read


def test_every_config_field_is_read():
    assert _unread_fields(_def_sources()) == UNREAD_FIELDS, (
        "a config field nothing reads is an option that does nothing: "
        "delete it (and drop it from UNREAD_FIELDS once it is gone)"
    )


def test_config_field_lint_flags_a_planted_field():
    sources = _def_sources()
    planted = sources[CONFIG_MODULE].replace(
        "        self.shard_id = shard_id\n",
        "        self.shard_id = shard_id\n        self.planted_field = 1\n",
        1,
    )
    assert planted != sources[CONFIG_MODULE]
    extra = {CONFIG_MODULE: planted}
    assert _unread_fields({**sources, **extra}) == UNREAD_FIELDS | {"planted_field"}
    # A read in to_dict is plumbing, not a use; a read elsewhere is.
    in_to_dict = planted.replace(
        "            \"shard_id\": self.shard_id,\n",
        "            \"shard_id\": self.shard_id,\n"
        "            \"planted_field\": self.planted_field,\n",
        1,
    )
    assert in_to_dict != planted
    extra = {CONFIG_MODULE: in_to_dict}
    assert _unread_fields({**sources, **extra}) == UNREAD_FIELDS | {"planted_field"}
    extra["src/repro/caller.py"] = "width = config.planted_field\n"
    assert _unread_fields({**sources, **extra}) == UNREAD_FIELDS
