"""Hot paths: reports/sec through the frontier engine, and the exact
Python-call cost of a WAL record, of a timer event, of a lone message's
send and of an arrived data frame (not paper figures)."""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.bench.runners.kit import count_calls
from repro.core.cluster import StabilizerCluster
from repro.core.config import StabilizerConfig
from repro.core.dataplane import DATA_CHANNEL, EPOCH_TAG, FRAME_TAG, DataPlane
from repro.core.durability import DurabilityManager
from repro.core.frontier import FrontierEngine
from repro.core.strategy import AckTable
from repro.dsl.semantics import DslContext
from repro.net import NetemSpec, Topology
from repro.obs import Histogram
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.faultio import MemoryFileSystem
from repro.transport.endpoint import TransportEndpoint
from repro.transport.messages import SyntheticPayload


def _hotpath_predicates(count: int, node_names: Sequence[str]) -> Dict[str, str]:
    """``count`` predicates mixing every engine path: pure MAX (index +
    fast advance), pure MIN / KTH_* (witness short-circuits), a second
    ACK-type column, and a nested reduce that always fully evaluates."""
    n = len(node_names)
    window_size = max(2, min(4, n))
    predicates: Dict[str, str] = {}
    for i in range(count):
        window = [node_names[(i + j) % n] for j in range(window_size)]
        refs = ", ".join(f"$WNODE_{name}" for name in window)
        shape = i % 6
        if shape == 0:
            source = f"MAX({refs})"
        elif shape == 1:
            source = f"MIN({refs})"
        elif shape == 2:
            source = f"KTH_MAX({min(2 + i // 6, window_size)}, {refs})"
        elif shape == 3:
            source = f"MIN({refs}.persisted)"
        elif shape == 4:
            source = "MAX(MIN($AZ_east), MIN($AZ_west))"
        else:
            source = f"KTH_MIN(2, $ALLWNODES.persisted)"
        predicates[f"p{i}"] = source
    return predicates


#: Microsecond-scale 1-2-5 ladder for single-report engine latencies.
HOTPATH_LATENCY_BUCKETS_US = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)


def _ignore_advance(origin: str, frontier: int, old: int) -> None:
    """The hot-path drivers' monitor: listens, does nothing."""


def _watched_hotpath_engine(
    node_names, groups, origin, predicates, table, incremental: bool
):
    """A bare engine over ``{origin: table}`` with every predicate
    registered, monitored, and given its registration-time full pass.

    The monitor is what keeps these drivers measuring the *eager* path:
    the engine evaluates a slot on every update only while somebody
    observes it, and a driver that merely pushes updates is nobody.
    (``origin`` doubles as the context's local node here, which is
    observed too — but a driver must not lean on that coincidence: with
    any other origin and no listener it would time the one-lookup skip
    and count no evaluation at all.)
    """
    ctx = DslContext(node_names, groups, origin)
    engine = FrontierEngine(ctx, {origin: table}, incremental=incremental)
    for key, source in predicates.items():
        engine.register_predicate(key, source)
        engine.monitor_stability_frontier(key, _ignore_advance)
    # The full pass a Stabilizer runs at registration time — baselines
    # established, excluded from any timed loop.
    engine.reevaluate(origin)
    return engine


_MODES = (("incremental", True), ("brute", False))


def _column(rng, node_count: int, reports: int):
    """One grid column: ``(node_names, groups, origin, updates)``, the
    updates drawn from ``rng``."""
    node_names = [f"n{i}" for i in range(1, node_count + 1)]
    half = max(node_count // 2, 1)
    groups = {"east": node_names[:half], "west": node_names[half:] or node_names[:1]}
    values = [[0, 0] for _ in range(node_count)]
    updates = []
    for _ in range(reports):
        node = rng.randrange(node_count)
        type_id = rng.randrange(2)
        values[node][type_id] += rng.randint(1, 3)
        updates.append((node, type_id, values[node][type_id]))
    return node_names, groups, node_names[0], updates


def _replay(engine: FrontierEngine, table: AckTable, origin: str, updates) -> None:
    """The hot loop, as ``AckTableStrategy`` drives it: each report
    advances one ACK-table cell and re-evaluates."""
    for node, type_id, seq in updates:
        table.update(node, type_id, seq)
        engine.reevaluate(
            origin, updated_node=node, updated_cells=((type_id, seq),)
        )


def _hotpath_latency_histogram(
    node_names, groups, origin, predicates, updates
) -> Histogram:
    """Replay ``updates`` on a fresh incremental engine, timing each
    report individually into a microsecond histogram."""
    table = AckTable(len(node_names), 2)
    engine = _watched_hotpath_engine(
        node_names, groups, origin, predicates, table, incremental=True
    )
    hist = Histogram("hotpath.report_latency_us", HOTPATH_LATENCY_BUCKETS_US)
    for node, type_id, seq in updates:
        table.update(node, type_id, seq)
        started = time.perf_counter()
        engine.reevaluate(
            origin, updated_node=node, updated_cells=((type_id, seq),)
        )
        hist.observe((time.perf_counter() - started) * 1e6)
    return hist


def run_hotpath_frontier(
    predicate_counts: Sequence[int] = (4, 16, 64),
    node_counts: Sequence[int] = (2, 8, 16),
    reports: int = 5_000,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Reports/sec through the incremental engine vs the brute-force
    baseline, per (predicates, nodes) grid cell.

    Each "report" advances one random ACK-table cell and re-evaluates —
    the exact shape of the ``AckTableStrategy -> FrontierEngine`` hot path.
    Both engines replay an identical deterministic update stream, and the
    resulting frontiers are compared cell-for-cell (``frontiers_match``).
    """
    rng = RngRegistry(seed).stream("hotpath")
    rows: List[Dict[str, object]] = []
    for node_count in node_counts:
        # One deterministic update stream per node count, replayed by
        # every engine and predicate count at this grid column.
        node_names, groups, origin, updates = _column(rng, node_count, reports)
        for predicate_count in predicate_counts:
            predicates = _hotpath_predicates(predicate_count, node_names)
            timings: Dict[str, float] = {}
            engines: Dict[str, FrontierEngine] = {}
            for mode, incremental in _MODES:
                table = AckTable(node_count, 2)
                engine = _watched_hotpath_engine(
                    node_names, groups, origin, predicates, table, incremental
                )
                started = time.perf_counter()
                _replay(engine, table, origin, updates)
                timings[mode] = time.perf_counter() - started
                engines[mode] = engine
            # Per-report latency distribution of the incremental engine,
            # from a separate replay so the timer calls do not skew the
            # aggregate throughput numbers above.
            latency = _hotpath_latency_histogram(
                node_names, groups, origin, predicates, updates
            )
            frontiers_match = all(
                engines["incremental"].frontier(origin, key)
                == engines["brute"].frontier(origin, key)
                for key in predicates
            )
            incremental = engines["incremental"]
            rows.append(
                {
                    "predicates": predicate_count,
                    "nodes": node_count,
                    "incremental_rps": reports / timings["incremental"],
                    "brute_rps": reports / timings["brute"],
                    "speedup": timings["brute"] / timings["incremental"],
                    "frontiers_match": frontiers_match,
                    "evaluations": incremental.evaluations,
                    "skipped_by_index": incremental.skipped_by_index,
                    "skipped_by_shortcircuit": incremental.skipped_by_shortcircuit,
                    "fast_advances": incremental.fast_advances,
                    "compiler_cache_hits": incremental.compiler.cache_hits,
                    "brute_evaluations": engines["brute"].evaluations,
                    "latency_p50_us": latency.percentile(50.0),
                    "latency_p99_us": latency.percentile(99.0),
                }
            )
    return rows


def hotpath_calls_per_report(
    predicate_count: int = 16,
    node_count: int = 8,
    reports: int = 5_000,
    seed: int = 0,
) -> Dict[str, float]:
    """Python calls per report inside the hot loop (the table update and
    ``reevaluate``), per engine, at one grid cell.

    The deterministic twin of that cell's ``speedup``: the wall-clock
    ratio moves with the machine's load, while these counts are exact per
    (cell, reports, seed) — and, unlike the evaluation counters alone, a
    change that makes each incremental evaluation dearer by a constant
    factor still moves them.  The stream is drawn the way a grid draws its
    first column.
    """
    node_names, groups, origin, updates = _column(
        RngRegistry(seed).stream("hotpath"), node_count, reports
    )
    predicates = _hotpath_predicates(predicate_count, node_names)
    calls: Dict[str, float] = {}
    for mode, incremental in _MODES:
        table = AckTable(node_count, 2)
        engine = _watched_hotpath_engine(
            node_names, groups, origin, predicates, table, incremental
        )
        _none, count = count_calls(_replay, engine, table, origin, updates)
        calls[mode] = count / reports
    return calls


def wal_calls_per_record(records: int = 1_000, batch: int = 8) -> float:
    """Python calls per WAL record on the no-fault path: ``records``
    appends of a 256-byte payload through a :class:`DurabilityManager`
    on a :class:`MemoryFileSystem`, the group commits (one per ``batch``
    records) and segment rotations they cause included.  Exact per
    ``(records, batch)``, so a layer put back on the per-record path
    moves it whatever the machine is doing."""
    config = StabilizerConfig(
        ["a", "b"],
        {"east": ["a"], "west": ["b"]},
        "a",
        durability=True,
        durability_group_commit_batch=batch,
    )
    manager = DurabilityManager(Simulator(), config, fs=MemoryFileSystem())
    payload = bytes(256)

    def log_all() -> None:
        for seq in range(1, records + 1):
            manager.append("a", seq, payload)

    _none, calls = count_calls(log_all)
    if manager.watermark("a") != records - records % batch:
        raise RuntimeError("the no-fault path did not commit every full batch")
    manager.close()
    return calls / records


def _fire() -> None:
    """A timer callback that does nothing (it is one of the calls counted)."""


def kernel_calls_per_event(events: int = 1_000) -> float:
    """Python calls per fire-and-forget timer event: ``events`` times one
    ``call_later`` and its dispatch by ``run``, the callback's own call
    included.  Exact per ``events``."""
    sim = Simulator()

    def drive() -> None:
        for index in range(events):
            sim.call_later(index * 0.001, _fire)
        sim.run()

    _none, calls = count_calls(drive)
    return calls / events


def _ignore_delivery(payload, meta) -> None:
    """A data channel's receiver that does nothing (one counted call)."""


def lone_send_calls_per_peer(payload_bytes: int = 512, nodes: int = 5) -> float:
    """Python calls one ``payload_bytes`` :meth:`DataPlane.send
    <repro.core.dataplane.DataPlane.send>` costs per peer, from the call
    through ``sim.run()`` to each receiver's data-channel ``on_deliver``
    (a no-op): chunking, the send buffer, the frame cut, the FIFO channel,
    the link, the event loop and the receiving channel.

    ``nodes`` bare transport endpoints on a uniform network, the sender's
    data plane the only plane, so no control traffic shares the run.  A
    first send, drained, warms the routes; the counted send then runs up
    to the moment its frames have arrived and no further (receiver ACKs
    are due ``ack_interval`` later).  Exact per ``(payload_bytes, nodes)``.
    """
    names = [f"n{i}" for i in range(1, nodes + 1)]
    link = NetemSpec(latency_ms=5, rate_mbit=100)
    net = Topology.uniform({name: name for name in names}, link).build(Simulator())
    config = StabilizerConfig(names, {name: [name] for name in names}, names[0])
    for name in names[1:]:
        endpoint = TransportEndpoint(net, name)
        endpoint.channel(
            names[0], DATA_CHANNEL, **config.channel_kwargs()
        ).on_deliver = _ignore_delivery
    dataplane = DataPlane(TransportEndpoint(net, names[0]), config)
    payload = bytes(payload_bytes)
    sim = net.sim
    dataplane.send(payload)
    sim.run()

    def send_and_arrive() -> None:
        dataplane.send(payload)
        sim.run(until=sim.now + 2 * link.latency_s)

    _none, calls = count_calls(send_and_arrive)
    peers = nodes - 1
    if dataplane.frames_sent != 2 * peers or dataplane.frame_messages != 2 * peers:
        raise RuntimeError("the send did not leave as one frame of one per peer")
    return calls / peers


#: Chunks per object in the frame driver: a frame of four is one object.
_FRAME_OBJECT_CHUNKS = 4


def _wire_frames(messages_per_frame: int, frames: int) -> list:
    """``frames`` consecutive data frames of one origin's stream as the
    sender cuts them — ``(payload, meta)`` pairs of ``messages_per_frame``
    synthetic 8 KB chunks each, every four chunks one object."""
    chunk_bytes = 8 * 1024
    lengths = (chunk_bytes,) * messages_per_frame
    payload = SyntheticPayload(chunk_bytes * messages_per_frame)
    wire = []
    seq = 0
    for _ in range(frames):
        metas = []
        for _ in range(messages_per_frame):
            object_id, index = divmod(seq, _FRAME_OBJECT_CHUNKS)
            seq += 1
            metas.append((seq, object_id, index, _FRAME_OBJECT_CHUNKS, None))
        meta = metas[0] if len(metas) == 1 else (FRAME_TAG, tuple(metas), lengths)
        wire.append((payload, (EPOCH_TAG, 0, meta)))
    return wire


def _frame_receive_calls(
    messages_per_frame: int, frames: int, engine: bool, observed: bool
) -> int:
    """Python calls one receiver makes taking ``frames`` frames off the
    data channel; without ``engine`` nothing hears of the arrivals (the
    data plane's own share: validation, reassembly, delivery).  With
    ``observed`` a monitor at the receiver watches the origin's stream;
    without, nothing there does (``wan_small``'s receivers)."""
    topo = Topology.uniform(
        {"a": "east", "b": "west"}, NetemSpec(latency_ms=5, rate_mbit=100)
    )
    config = StabilizerConfig(
        ["a", "b"],
        {"east": ["a"], "west": ["b"]},
        "a",
        predicates={"all": "MIN($ALLWNODES - $MYWNODE)"},
    )
    cluster = StabilizerCluster(topo.build(Simulator()), config)
    node = cluster["b"]
    if observed:
        # Somebody must observe a's stream at b, or b evaluates nothing.
        node.monitor_stability_frontier("all", _ignore_advance)
    if not engine:
        node.dataplane.on_arrival = None
    receive = node.endpoint.channel("a", DATA_CHANNEL).on_deliver
    wire = _wire_frames(messages_per_frame, frames)

    def receive_all() -> None:
        for payload, meta in wire:
            receive(payload, meta)

    _none, calls = count_calls(receive_all)
    if node.dataplane.highest_received("a") != messages_per_frame * frames:
        raise RuntimeError("the receiver did not take every frame")
    cluster.close()
    return calls


def frame_calls_per_message(
    messages_per_frame: int = 4, frames: int = 400, observed: bool = True
) -> Dict[str, float]:
    """Python calls a receiver spends on an arrived data frame of
    ``messages_per_frame`` messages, from the channel's ``on_deliver``
    down: one receiver, the ACK-table engine, and — with ``observed`` —
    a monitor on the origin's stream.  ``calls_per_message`` and
    ``calls_per_frame`` are the whole path; ``engine_calls_per_frame`` is
    what the arrival costs above the data plane (ACK table, report
    batcher, frontier engine, facade) — the count with the engine
    listening minus the count without.  Exact per
    ``(messages_per_frame, frames, observed)``."""
    total = _frame_receive_calls(
        messages_per_frame, frames, engine=True, observed=observed
    )
    bare = _frame_receive_calls(
        messages_per_frame, frames, engine=False, observed=observed
    )
    return {
        "calls_per_message": total / (frames * messages_per_frame),
        "calls_per_frame": total / frames,
        "engine_calls_per_frame": (total - bare) / frames,
    }
