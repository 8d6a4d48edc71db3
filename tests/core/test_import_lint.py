"""Lints on the strategy layer: ``repro.core.acks`` is private to it, and
every engine has the one shape (second half of this file); the node
interface is classified once, and the send window has one owner.

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
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The strategy layer: the one place allowed to import the table module.
#: Engine modules (strategy_*.py) import AckTable via repro.core.strategy,
#: but adding one here is legitimate if an engine ever needs the module
#: directly — that is what the allowlist is for.
ALLOWED = {
    "core/strategy.py",
    "core/strategy_sequencer.py",
    "core/strategy_hybrid.py",
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
        "engines have-a ControlChannelSet and fill _propagate_grant; see "
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

CATEGORIES = ("ROUTED", "EVERY_STACK", "MERGED", "LIFECYCLE", "STACK_ONLY")


def _class_body(tree, name):
    return next(node.body for node, _bases in _classes(tree) if node.name == name)


def _interface_tuples(sharding_tree):
    """The five module-level tuples of ``core/sharding.py``, as name
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
    for name in categories["EVERY_STACK"]:
        calls = {
            node.func.attr
            for node in ast.walk(sharded.get(name, ast.Pass()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "self"
        }
        if "_every_stack" not in calls:
            violations.append(
                f"ShardedStabilizer.{name} is EVERY_STACK but does not go "
                "through self._every_stack: stacks built later would miss it"
            )
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
        "one of ROUTED, EVERY_STACK, MERGED, LIFECYCLE, STACK_ONLY in "
        "core/sharding.py"
    ]
    twice = sharding.replace('LIFECYCLE = ("close",', 'LIFECYCLE = ("stats", "close",', 1)
    assert "classified 2 times (MERGED, LIFECYCLE)" in _interface_violations(
        stabilizer, twice
    )[0]
    undefined = sharding.replace("    def request_catchup(", "    def _request_catchup(", 1)
    assert _interface_violations(stabilizer, undefined) == [
        "LIFECYCLE names 'request_catchup' but ShardedStabilizer does not define it"
    ]
    bypass = sharding.replace(
        'return self._every_stack(\n            "policy",',
        'return every_stack(\n            "policy",',
        1,
    )
    assert bypass != sharding
    assert _interface_violations(stabilizer, bypass) == [
        "ShardedStabilizer.set_degradation_policy is EVERY_STACK but does not "
        "go through self._every_stack: stacks built later would miss it"
    ]


def test_the_interface_table_in_the_docs_is_the_lints():
    """docs/sharding.md prints the five tuples; hold the table to them."""
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
# One send window: outside the transport, only the data plane that keeps it
# and the chaos invariant that checks it read a channel's bytes in flight.
# ---------------------------------------------------------------------------

INFLIGHT_READERS = {"core/dataplane.py", "chaos/invariants.py"}
INFLIGHT_NAMES = {"unacked_bytes", "_unacked_bytes"}


def _inflight_reads(tree):
    """The line of every ``.unacked_bytes`` / ``._unacked_bytes`` read."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in INFLIGHT_NAMES
    ]


def test_only_the_data_plane_reads_the_bytes_in_flight():
    readers, violations = set(), []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("transport/"):
            continue
        lines = _inflight_reads(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            readers.add(rel)
        if rel not in INFLIGHT_READERS:
            violations += [f"{rel}:{line}" for line in lines]
    assert not violations, (
        "the send window is the data plane's (core/dataplane.py); compare "
        "in-flight bytes with it there, not here:\n  " + "\n  ".join(violations)
    )
    # Not vacuous: the allowlist is exactly who reads it.
    assert readers == INFLIGHT_READERS


def test_inflight_lint_catches_each_read():
    for source in ("chan.unacked_bytes()", "inflight = stream.channel._unacked_bytes"):
        assert _inflight_reads(ast.parse(source)) == [1], source
    assert not _inflight_reads(ast.parse("chan.unacked_count()"))


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
