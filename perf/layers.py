"""Module path -> layer.  The layers are this repository's modules.

A profiled function is placed by the file it was defined in.  Files named
here go to their layer; any other file of a known package goes to that
package's layer; a package this table has never heard of keeps its own name
and is reported as ``unmapped`` so the table cannot silently go stale.
Builtins and the standard library have no layer of their own: ``trace.py``
charges their self time to the layer of whoever called them.
"""

import os

#: The layers with declared metrics, in the order the table prints.
LAYERS = (
    "sim", "net", "transport.fifo", "transport.codec", "core.dataplane",
    "core.control", "core.frontier", "core.durability", "core.sharding",
    "core.node", "dsl", "obs", "harness", "python",
)

_FILES = {
    "transport/fifo.py": "transport.fifo",
    "transport/endpoint.py": "transport.fifo",
    "transport/messages.py": "transport.codec",
    "transport/chunker.py": "transport.codec",
    "core/dataplane.py": "core.dataplane",
    "core/controlplane.py": "core.control",
    "core/strategy.py": "core.control",
    "core/strategy_sequencer.py": "core.control",
    "core/strategy_hybrid.py": "core.control",
    "core/acks.py": "core.control",
    "core/frontier.py": "core.frontier",
    "core/durability.py": "core.durability",
    "core/sharding.py": "core.sharding",
    "core/membership.py": "core.sharding",
    "core/rebalance.py": "core.sharding",
}

_PACKAGES = {
    "sim": "sim",
    "net": "net",
    "transport": "transport.fifo",
    "core": "core.node",
    "storage": "core.durability",
    "dsl": "dsl",
    "obs": "obs",
    "workloads": "harness",
    "bench": "harness",
    "testing": "harness",
}

#: Code objects the predicate compiler emits; they run inside the frontier.
_JIT_FILENAME = "<stabilizer-dsl>"


def make_layer_of(repro_dir, perf_dir):
    """Return ``layer_of(filename)``: a layer name, or ``None`` for code that
    belongs to neither the program nor the benchmark."""
    repro_dir = os.path.join(os.path.realpath(repro_dir), "")
    perf_dir = os.path.join(os.path.realpath(perf_dir), "")

    def layer_of(filename):
        if filename == _JIT_FILENAME:
            return "core.frontier"
        if not filename.endswith(".py"):
            return None
        path = os.path.realpath(filename)
        if path.startswith(perf_dir):
            return "harness"
        if not path.startswith(repro_dir):
            return None
        relative = path[len(repro_dir):].replace(os.sep, "/")
        if relative in _FILES:
            return _FILES[relative]
        package = relative.split("/")[0] if "/" in relative else "repro"
        return _PACKAGES.get(package, package)

    return layer_of
