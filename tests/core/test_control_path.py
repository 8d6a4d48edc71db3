"""The ACK-table control path against the relay chain it replaced.

An arrived frame, an applied report, a local grant and a local send each
write the ACK table once and call the frontier engine only where it
observes the origin.  Before, each value went through a chain of relays:
``on_remote_deliver`` → ``set_all_types`` → ``grant_local`` →
``AckTable.update`` → ``Stabilizer._on_table_update`` → ``reevaluate`` +
``_advance_delivery_watermark`` on arrival, and ``on_control_frame`` →
``_apply_report`` → ``update_many`` → ``_on_table_update`` for a report.

That chain is kept below as a private oracle (``_ParentChain`` and the
ACK-table engine's ``_AckTableOracle``); where an arrival's ``received``
grant goes next is not part of it, so the oracle hands that to the
engine's ``_propagate_received`` as the engine does.  Seeded streams — frames of 1–4
messages with stale and duplicate runs, reports single and batched with
stale cells, local sends and grants, waiters — drive a node built with
the oracle and a node built with the engine as it is, and everything a
caller can see must agree after every step: table rows, the pending
report batch, frontier values and engine counters, monitor calls, waiter
releases, the delivery watermark and the send buffer, the datagrams on
the wire and every trace event.  Both engines × durability × tracer ×
whether anything at the node observes the remote streams.
"""

import random

import pytest

import repro.core.stabilizer as stabilizer_module
from repro.core import StabilizerCluster
from repro.core.config import StabilizerConfig
from repro.core.strategy import (
    STRATEGY_NAMES,
    AckTableStrategy,
    StabilizationStrategy,
)
from repro.core.strategy_sequencer import SequencerStrategy
from repro.errors import StabilizerError
from repro.net import NetemSpec, Topology
from repro.obs.tracer import Tracer
from repro.sim import Simulator
from repro.testing import MemoryFileSystem
from repro.transport.messages import (
    ControlBatch,
    ControlFrame,
    SequencerStableFrame,
    SyntheticPayload,
)

from tests.wiretap import Tap

NODES = ["a", "b", "c"]
LOCAL = "b"  # the node every stream is fed to
PEERS = ["a", "c"]
PREDICATES = {
    "all": "MIN($ALLWNODES)",
    "one": "MAX($ALLWNODES - $MYWNODE)",
    "two": "KTH_MAX(2, $ALLWNODES)",
    "disk": "MIN($ALLWNODES.persisted)",
    "ver": "MAX($ALLWNODES.verified)",
}
RECEIVED, PERSISTED, VERIFIED = 0, 1, 2
STEPS = 160


# ---------------------------------------------------------------------------
# The oracle: the relay chain as it was.
# ---------------------------------------------------------------------------


def _set_all_types(table, node, seq, skip):
    row = table.table[node]
    advanced = []
    for type_id, current in enumerate(row):
        if seq > current and type_id not in skip:
            row[type_id] = seq
            advanced.append(type_id)
    return advanced


def _update_many(table, node, entries):
    if not 0 <= node < table.node_count:
        raise StabilizerError(f"node index {node} out of range")
    row = table.table[node]
    advanced = []
    for type_id, seq in entries.items():
        if not 0 <= type_id < table.type_count:
            raise StabilizerError(f"type id {type_id} out of range")
        if seq < 0:
            raise StabilizerError(f"negative sequence number: {seq}")
        if seq > row[type_id]:
            row[type_id] = seq
            advanced.append((type_id, seq))
    return advanced


class _ParentChain(StabilizationStrategy):
    """The base class's arrival, grant and local-send paths, and the
    facade's table-update hop, as they were."""

    def on_local_send(self, first, last):
        table = self.tables[self.config.local]
        advanced = _set_all_types(
            table, self.local_index, last, self.node._persisted_skip
        )
        self.node.engine.reevaluate(
            self.config.local,
            updated_node=self.local_index,
            updated_cells=[(type_id, last) for type_id in advanced],
        )
        # As the (type_id, seq) cells the engines' overrides now take.
        return [(type_id, last) for type_id in advanced]

    def on_remote_deliver(self, origin, seq, first=None):
        table = self.tables[origin]
        origin_index = self.config.node_index(origin)
        advanced = _set_all_types(table, origin_index, seq, self.node._persisted_skip)
        if advanced:
            self.node.engine.reevaluate(
                origin,
                updated_node=origin_index,
                updated_cells=[(type_id, seq) for type_id in advanced],
            )
        self.node.detector.heard_from(origin)
        tracer = self.tracer
        held = table.table[self.local_index][self.received_id]
        if first is not None and first < seq and tracer.enabled:
            for covered in range(max(first, held + 1), seq):
                if tracer.sampled(origin, covered):
                    tracer.emit(
                        self.config.local,
                        "ack.local",
                        origin=origin,
                        type="received",
                        seq=covered,
                    )
        self.grant_local(origin, self.received_id, seq, arrival_held=held)

    def grant_local(self, origin, type_id, seq, arrival_held=None):
        table = self.tables.get(origin)
        if table is None:
            raise StabilizerError(f"unknown origin stream {origin!r}")
        if not table.update(self.local_index, type_id, seq):
            return
        tracer = self.tracer
        if tracer.enabled and tracer.sampled(origin, seq):
            names = self._type_names
            tracer.emit(
                self.config.local,
                "ack.local",
                origin=origin,
                type=names[type_id] if type_id < len(names) else type_id,
                seq=seq,
            )
        self._on_table_update(origin, self.local_index, ((type_id, seq),))
        if arrival_held is None:
            self._batch_report(origin, type_id, seq)
        else:
            # Not part of the chain: an arrival's grant propagates as the
            # engine propagates arrivals.
            self._propagate_received(origin, seq, arrival_held)

    def _apply_stable(self, origin, entries):
        table = self.tables.get(origin)
        if table is None:
            raise StabilizerError(f"unknown origin stream {origin!r}")
        advanced = False
        for type_id, seq in entries:
            for row in range(table.node_count):
                if table.update(row, type_id, seq):
                    advanced = True
        if advanced:
            self._on_table_update(origin, None, None)
        return advanced

    def _on_table_update(self, origin, node, cells=None):
        self.node.engine.reevaluate(origin, updated_node=node, updated_cells=cells)
        if origin == self.node.name:
            self._advance_delivery_watermark(cells)

    def _advance_delivery_watermark(self, cells=None):
        stabilizer = self.node
        received = stabilizer._type_ids["received"]
        if cells is not None and all(t != received for t, _ in cells):
            return
        floor = min([row[received] for row in stabilizer.tables[stabilizer.name].table])
        if floor > stabilizer._delivery_watermark:
            stabilizer._delivery_watermark = floor
            stabilizer.dataplane.reclaim_up_to(floor)


class _AckTableOracle(AckTableStrategy, _ParentChain):
    """The ACK-table engine's flush and report paths, as they were."""

    def _report_frame(self, origin, entries):
        return ControlFrame(
            node_index=self.local_index,
            origin_index=self.config.node_index(origin),
            entries=dict(entries),
        )

    def _ship_batch(self, pending):
        per_peer = {}
        for origin, entries in pending.items():
            targets = self.carrier.observers[origin]
            self.reports_withheld += self._peer_count - len(targets)
            if targets:
                frame = self._report_frame(origin, entries)
                for peer in targets:
                    per_peer.setdefault(peer, []).append(frame)
        for peer, frames in per_peer.items():
            if len(frames) == 1:
                outgoing = frames[0]
            else:
                outgoing = ControlBatch(self.local_index, frames)
                self.reports_coalesced += len(frames)
            self.carrier.send_frame(peer, outgoing)
            self.reports_sent += len(frames)
            if self.tracer.enabled:
                names = self._type_names
                self.tracer.emit(
                    self.config.local,
                    "control.send",
                    peer=peer,
                    origins=len(frames),
                    cells=sum(len(f.entries) for f in frames),
                    heads=[
                        [
                            self.config.node_names[f.origin_index],
                            names[t] if t < len(names) else t,
                            s,
                        ]
                        for f in frames
                        for t, s in f.entries.items()
                    ],
                )

    def on_control_frame(self, peer, frame):
        if isinstance(frame, ControlFrame):
            self._apply_report(frame)
        elif isinstance(frame, ControlBatch):
            for report in frame.frames:
                self._apply_report(report)
        else:
            super().on_control_frame(peer, frame)

    def _apply_report(self, frame):
        reporter = frame.node_index
        origin = self.config.node_names[frame.origin_index]
        if self.tracer.enabled:
            names = self._type_names
            self.tracer.emit(
                self.config.local,
                "control.receive",
                peer=self.config.node_names[reporter],
                origin=origin,
                cells=len(frame.entries),
                heads=[
                    [names[t] if t < len(names) else t, s]
                    for t, s in frame.entries.items()
                ],
            )
        table = self.tables[origin]
        advanced = _update_many(table, reporter, frame.entries)
        if advanced:
            self._on_table_update(origin, reporter, advanced)


class _SequencerOracle(SequencerStrategy, _ParentChain):
    pass


ORACLES = {
    "acktable": _AckTableOracle,
    "sequencer": _SequencerOracle,
}


# ---------------------------------------------------------------------------
# The engine as it is and the oracle, fed one stream.
# ---------------------------------------------------------------------------


def _plain(value):
    """A frame's fields as comparable plain data."""
    if isinstance(value, dict):
        return sorted((k, _plain(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "__slots__"):
        return (type(value).__name__,) + tuple(
            _plain(getattr(value, slot)) for slot in value.__slots__
        )
    return value


class _Side:
    """A three-node cluster whose node ``b`` is fed the stream; what it
    tells its listeners and puts on the wire is logged."""

    def __init__(self, engine, durable, traced, observed):
        topo = Topology.uniform(
            {name: name for name in NODES}, NetemSpec(latency_ms=5, rate_mbit=100)
        )
        self.net = topo.build(Simulator())
        self.sim = self.net.sim
        config = StabilizerConfig(
            NODES,
            {name: [name] for name in NODES},
            NODES[0],
            predicates=PREDICATES,
            ack_types=["verified"],
            control_batch=3,
            durability=durable,
            stabilization_strategy=engine,
        )
        self.tracer = Tracer(clock=self.sim.clock, sample_shift=1) if traced else None
        self.cluster = StabilizerCluster(
            self.net,
            config,
            fs_factory=(lambda name: MemoryFileSystem()) if durable else None,
            tracer=self.tracer,
        )
        self.node = self.cluster[LOCAL]
        self.monitored = []
        if observed:
            for key in PREDICATES:
                self.node.monitor_stability_frontier(
                    key,
                    lambda origin, new, old, _k=key: self.monitored.append(
                        (_k, origin, new, old)
                    ),
                )
        self.released = []
        self.tap = Tap(self.net, "dgram")
        # Start-up: the interest statements land, then nothing runs.
        self.sim.run(until=0.02)

    def state(self):
        node = self.node
        engine = node.engine
        strategy = node.strategy
        return {
            "tables": {o: t.snapshot() for o, t in node.tables.items()},
            "pending": strategy._pending,
            "pending_count": strategy._pending_count,
            "frontiers": engine._frontiers,
            "counters": (
                engine.evaluations,
                engine.evaluations_on_read,
                engine.skipped_by_index,
                engine.skipped_by_shortcircuit,
                engine.fast_advances,
            ),
            "monitored": self.monitored,
            "released": self.released,
            "watermark": node.delivery_watermark(),
            "buffered": node.dataplane.buffer.buffered_bytes(),
            "strategy": strategy.stats(),
            "wire": [
                (src, dst, size, _plain(payload[1][1:]))
                for _at, src, dst, payload, size in self.tap.seen
            ],
        }

    def events(self):
        if self.tracer is None:
            return []
        return [(e.node, e.etype, e.fields) for e in self.tracer.events()]


def _pair(engine, durable, traced, observed, monkeypatch):
    new = _Side(engine, durable, traced, observed)
    with monkeypatch.context() as patch:
        patch.setattr(
            stabilizer_module,
            "build_strategy",
            lambda config: ORACLES[config.stabilization_strategy](config),
        )
        oracle = _Side(engine, durable, traced, observed)
    assert type(oracle.node.strategy) is ORACLES[engine]
    assert type(new.node.strategy) is not ORACLES[engine]
    return new, oracle


def _stream(engine, seed):
    """``STEPS`` seeded steps, each a callable ``step(side)``."""
    rng = random.Random(seed)
    held = {origin: 0 for origin in PEERS}  # highest delivered per origin
    cells = {}  # (reporter, origin, type) -> highest value reported
    sent = 0
    steps = []
    for _ in range(STEPS):
        roll = rng.random()
        if roll < 0.35:
            origin = rng.choice(PEERS)
            size = rng.randint(1, 4)
            if held[origin] and rng.random() < 0.2:
                # A stale or duplicate run: at or below what is held.
                seq = rng.randint(1, held[origin])
                first = max(1, seq - size + 1)
            else:
                first = held[origin] + 1
                seq = held[origin] = first + size - 1
            steps.append(
                lambda s, o=origin, q=seq, f=first: s.node.strategy.on_remote_deliver(
                    o, q, f
                )
            )
        elif roll < 0.65:
            frames = []
            reporter = rng.choice(PEERS)
            for _ in range(rng.choice((1, 1, 2, 3))):
                origin = rng.choice(NODES)
                entries = {}
                types = rng.sample((RECEIVED, PERSISTED, VERIFIED), rng.randint(1, 3))
                for type_id in types:
                    key = (reporter, origin, type_id)
                    top = cells.get(key, 0)
                    if origin == LOCAL:
                        # Around what b sent — and past it at times, as
                        # for a b restarted from a snapshot that lags what
                        # it had sent: then a send of b's can move the
                        # floor of b's received column.
                        value = rng.randint(max(0, top - 1), max(top, sent + 3))
                    else:
                        value = rng.randint(max(0, top - 2), top + 3)
                    cells[key] = max(top, value)
                    entries[type_id] = value
                frames.append((NODES.index(reporter), NODES.index(origin), entries))
            steps.append(lambda s, fs=frames: _report(s, engine, fs))
        elif roll < 0.80:
            count = rng.randint(1, 3)
            sent += count
            steps.append(
                lambda s, n=count: [s.node.send(SyntheticPayload(64)) for _ in range(n)]
            )
        elif roll < 0.92:
            origin = rng.choice(NODES)
            type_id = rng.choice((RECEIVED, PERSISTED, VERIFIED))
            # b may grant its own stream a level past what it sent (a
            # ``report_stability`` ahead of the data): its own received
            # cell then rises through the grant path, not a send.
            if origin == LOCAL:
                seq = rng.randint(max(0, sent - 2), sent + 3)
            else:
                seq = rng.randint(0, max(held.get(origin, 0), 1))
            steps.append(
                lambda s, o=origin, t=type_id, q=seq: s.node.strategy.grant_local(
                    o, t, q
                )
            )
        else:
            origin = rng.choice(NODES)
            key = rng.choice(sorted(PREDICATES))
            seq = rng.randint(1, 12)
            waiter = len(steps)
            steps.append(
                lambda s, o=origin, k=key, q=seq, w=waiter: s.node.engine.add_waiter(
                    o, q, lambda: s.released.append(w), key=k
                )
            )
    return steps


def _report(side, engine, frames):
    """Hand ``frames`` to the node as its engine's own control frames."""
    strategy = side.node.strategy
    if engine == "acktable":
        reports = [ControlFrame(r, o, dict(e)) for r, o, e in frames]
        if len(reports) > 1:
            frame = ControlBatch(reports[0].node_index, reports)
        else:
            frame = reports[0]
        strategy.on_control_frame(NODES[frame.node_index], frame)
    else:
        # The sequencer's verdicts: stable everywhere up to each value.
        entries = {(o, t): seq for _r, o, e in frames for t, seq in e.items()}
        strategy.on_control_frame("a", SequencerStableFrame(0, entries))


@pytest.mark.parametrize("observed", [True, False], ids=["observed", "unobserved"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
@pytest.mark.parametrize("engine", STRATEGY_NAMES)
def test_the_control_path_matches_the_relay_chain(
    engine, durable, traced, observed, monkeypatch
):
    new, oracle = _pair(engine, durable, traced, observed, monkeypatch)
    for seed in (1, 2):
        for index, step in enumerate(_stream(engine, seed)):
            step(new)
            step(oracle)
            assert new.state() == oracle.state(), f"seed {seed} step {index}"
    assert new.events() == oracle.events()
    # Every frontier read — the pull path included — agrees at the end.
    for origin in NODES:
        for key in PREDICATES:
            assert new.node.get_stability_frontier(key, origin) == (
                oracle.node.get_stability_frontier(key, origin)
            )
    # The streams reached every path they are meant to.
    assert new.node.tables[LOCAL].get(1, RECEIVED) > 0
    assert new.tap.seen
    if engine == "acktable":
        assert new.node.delivery_watermark() > 0
        assert new.node.strategy.reports_sent > 0


# ---------------------------------------------------------------------------
# A report's indices come off the wire.
# ---------------------------------------------------------------------------


def _two_nodes():
    link = NetemSpec(latency_ms=5, rate_mbit=100)
    topo = Topology.uniform({"a": "a", "b": "b"}, link)
    config = StabilizerConfig(["a", "b"], {"a": ["a"], "b": ["b"]}, "a")
    return StabilizerCluster(topo.build(Simulator()), config)["a"]


@pytest.mark.parametrize("origin_index", [-1, 2, 7])
@pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
def test_a_report_for_an_origin_out_of_range_is_refused(origin_index, batched):
    """An origin index is range-checked like the reporter's: -1 must not
    wrap to the last origin's table, and 7 is no IndexError."""
    node = _two_nodes()
    report = ControlFrame(1, origin_index, {0: 3})
    frame = ControlBatch(1, [ControlFrame(1, 0, {0: 2}), report]) if batched else report
    with pytest.raises(StabilizerError, match="origin index"):
        node.strategy.on_control_frame("b", frame)
    assert node.tables["b"].snapshot() == [[0, 0], [0, 0]]


def test_a_grant_that_lifts_the_received_floor_reclaims(monkeypatch):
    """The one way a local grant moves the delivery watermark: this node
    grants its own stream ``received`` past what it sent while every peer
    already holds more — its own cell was the floor."""
    new, oracle = _pair("acktable", False, False, False, monkeypatch)
    steps = [
        lambda s: [s.node.send(SyntheticPayload(64)) for _ in range(3)],
        lambda s: s.node.strategy.on_control_frame("a", ControlFrame(0, 1, {0: 5})),
        lambda s: s.node.strategy.on_control_frame("c", ControlFrame(2, 1, {0: 5})),
        lambda s: s.node.strategy.grant_local(LOCAL, RECEIVED, 4),
    ]
    watermarks = []
    for step in steps:
        step(new)
        step(oracle)
        assert new.state() == oracle.state()
        watermarks.append(new.node.delivery_watermark())
    assert watermarks == [0, 0, 3, 4]
    assert new.tap.seen
