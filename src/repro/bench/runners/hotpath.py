"""Hot paths: reports/sec through the frontier engine, the exact
Python-call cost of a WAL record, of a timer event, of a lone message's
send and of an arrived data frame, frame coalescing against per-message
sends, and the substrate's timers, packets and frames (not paper
figures)."""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.bench.paper import Experiment, finding
from repro.bench.reporting import format_counters, format_table
from repro.bench.runners.kit import count_calls
from repro.core.cluster import StabilizerCluster
from repro.core.config import StabilizerConfig
from repro.core.dataplane import DATA_CHANNEL, FRAME_TAG, DataPlane
from repro.core.durability import DurabilityManager
from repro.core.frontier import FrontierEngine
from repro.core.strategy import AckTable
from repro.dsl.semantics import DslContext
from repro.net import NetemSpec, Topology
from repro.obs import Histogram
from repro.obs.tracer import Tracer
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.faultio import MemoryFileSystem
from repro.transport.endpoint import TransportEndpoint
from repro.transport.fifo import ACK_INTERVAL_S
from repro.transport.messages import SyntheticPayload


def _hotpath_predicates(count: int, node_names: Sequence[str]) -> Dict[str, str]:
    """``count`` predicates mixing every engine path: pure MAX (index +
    fast advance), pure MIN / KTH_* and a nested reduce (witness
    short-circuits), and a second ACK-type column."""
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


def _ignore_delivery(peer, payload, meta) -> None:
    """A data channel's receiver that does nothing (one counted call)."""


def _lone_sender(nodes: int):
    """``nodes`` bare transport endpoints on a uniform 5 ms network, the
    first one's data plane the only plane, so no control traffic shares
    a run; one send, drained, has warmed the routes.  Returns the data
    plane and the link's one-way latency."""
    names = [f"n{i}" for i in range(1, nodes + 1)]
    link = NetemSpec(latency_ms=5, rate_mbit=100)
    net = Topology.uniform({name: name for name in names}, link).build(Simulator())
    config = StabilizerConfig(names, {name: [name] for name in names}, names[0])
    for name in names[1:]:
        TransportEndpoint(net, name).accept(
            DATA_CHANNEL, _ignore_delivery, **config.channel_kwargs()
        )
    dataplane = DataPlane(TransportEndpoint(net, names[0]), config)
    dataplane.send(bytes(512))
    net.sim.run()
    return dataplane, link.latency_s


def lone_send_calls_per_peer(payload_bytes: int = 512, nodes: int = 5) -> float:
    """Python calls one ``payload_bytes`` :meth:`DataPlane.send
    <repro.core.dataplane.DataPlane.send>` costs per peer, from the call
    through ``sim.run()`` to each receiver's data-channel ``on_deliver``
    (a no-op): chunking, the send buffer, the frame cut, the FIFO channel,
    the link, the event loop and the receiving channel.

    On :func:`_lone_sender`'s network, the counted send runs up to the
    moment its frames have arrived and no further (receiver ACKs are due
    ``ACK_INTERVAL_S`` later).  Exact per ``(payload_bytes, nodes)``.
    """
    dataplane, latency_s = _lone_sender(nodes)
    payload = bytes(payload_bytes)
    sim = dataplane.endpoint.sim

    def send_and_arrive() -> None:
        dataplane.send(payload)
        sim.run(until=sim.now + 2 * latency_s)

    _none, calls = count_calls(send_and_arrive)
    peers = nodes - 1
    if dataplane.frames_sent != 2 * peers or dataplane.frame_messages != 2 * peers:
        raise RuntimeError("the send did not leave as one frame of one per peer")
    return calls / peers


def ack_calls_per_ack(nodes: int = 5) -> float:
    """Python calls one data-channel ACK that retires a frame costs its
    sender, from the link's arrival event through the channel to the data
    plane's ``on_retired``, which hands the peer's position to
    ``on_acked``.

    On :func:`_lone_sender`'s network a lone 512 B send goes to every
    peer; each receiver ACKs it ``ACK_INTERVAL_S`` after it arrived, and
    the count covers only the stretch in which those ACKs are in flight
    and land.  Exact per ``nodes``."""
    dataplane, latency_s = _lone_sender(nodes)
    sim = dataplane.endpoint.sim
    channels = list(dataplane.endpoint.channels().values())
    start = sim.now
    dataplane.send(bytes(512))
    sim.run(until=start + ACK_INTERVAL_S + 1.5 * latency_s)  # ACKs on the wire
    if sum(channel.unacked_count() for channel in channels) != len(channels):
        raise RuntimeError("an ACK landed before the counted stretch")

    def acks_land() -> None:
        sim.run(until=start + ACK_INTERVAL_S + 3 * latency_s)

    _none, calls = count_calls(acks_land)
    if any(channel.unacked_count() for channel in channels):
        raise RuntimeError("an ACK did not land in the counted stretch")
    return calls / len(channels)


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
        wire.append((payload, (0, meta)))
    return wire


def _frame_receive_calls(
    messages_per_frame: int, frames: int, engine: bool, observed: bool, delivered: bool
) -> int:
    """Python calls one receiver makes taking ``frames`` frames off the
    data channel; without ``engine`` nothing hears of the arrivals (the
    data plane's own share: validation, and reassembly only when
    ``delivered``).  With
    ``observed`` a monitor at the receiver watches the origin's stream;
    without, nothing there does (``wan_small``'s receivers).  With
    ``delivered`` a no-op delivery handler makes the receiver reassemble
    and deliver every message, as the apps' receivers do."""
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
    if delivered:
        node.on_delivery(lambda origin, seq, payload, meta: None)
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
    messages_per_frame: int = 4,
    frames: int = 400,
    observed: bool = True,
    delivered: bool = False,
) -> Dict[str, float]:
    """Python calls a receiver spends on an arrived data frame of
    ``messages_per_frame`` messages, from the channel's ``on_deliver``
    down: one receiver, the ACK-table engine, with ``observed`` a
    monitor on the origin's stream, with ``delivered`` a delivery
    handler.  ``calls_per_message`` and ``calls_per_frame`` are the
    whole path; ``engine_calls_per_frame`` is what the arrival costs
    above the data plane (ACK table, report batcher, frontier engine,
    facade) — the count with the engine listening minus the count
    without.  Exact per
    ``(messages_per_frame, frames, observed, delivered)``."""
    total = _frame_receive_calls(
        messages_per_frame, frames, True, observed, delivered
    )
    bare = _frame_receive_calls(
        messages_per_frame, frames, False, observed, delivered
    )
    return {
        "calls_per_message": total / (frames * messages_per_frame),
        "calls_per_frame": total / frames,
        "engine_calls_per_frame": (total - bare) / frames,
    }


#: The grid's key cell, whose calls per report are counted.
KEY_PREDICATES = 16
KEY_NODES = 8


def run_hotpath(
    predicate_counts: Sequence[int] = (4, 16, 64),
    node_counts: Sequence[int] = (2, 8, 16),
    reports: int = 5_000,
) -> Dict[str, object]:
    """The frontier engine's grid (:func:`run_hotpath_frontier`), its key
    cell's calls per report (:func:`hotpath_calls_per_report`), and the
    exact Python-call cost of the per-operation paths every workload pays:
    a WAL record, a timer event, a lone send per peer, the data ACK that
    retires it, and an arrived data frame of one and of four messages,
    observed and not, delivered and not."""
    return {
        "reports": reports,
        "rows": run_hotpath_frontier(predicate_counts, node_counts, reports),
        "calls_per_report": hotpath_calls_per_report(
            KEY_PREDICATES, KEY_NODES, reports
        ),
        "wal_record": wal_calls_per_record(records=1_000, batch=8),
        "timer_event": kernel_calls_per_event(events=1_000),
        "lone_send": lone_send_calls_per_peer(payload_bytes=512, nodes=5),
        "ack": ack_calls_per_ack(nodes=5),
        "frame_of_one": frame_calls_per_message(1, frames=200),
        "frame_of_four": frame_calls_per_message(4, frames=200),
        "frame_of_four_delivered": frame_calls_per_message(
            4, frames=200, delivered=True
        ),
        "frame_unobserved": frame_calls_per_message(1, frames=200, observed=False),
    }


# ---------------------------------------------------------------------------
# The pipelined data plane: frame coalescing vs per-message sends.
# ---------------------------------------------------------------------------

LATENCY_MS = 70.0
RATE_MBIT = 100.0
PIPELINE_CHUNK_BYTES = 1024
PIPELINE_FRAME_BYTES = 32 * 1024
#: Transfers run with tracing ON, sampled at 1/2^6 = 1/64 of sequences
#: (head-based, seeded): the calls finding then also guards the claim
#: that sampled tracing is cheap enough for always-on use.
TRACE_SAMPLE_SHIFT = 6


def run_transfer(total_bytes: int, frame_bytes, counted: bool = False) -> dict:
    """One ``total_bytes`` transfer over a 100 Mbit / 70 ms link, coalesced
    into ``frame_bytes`` frames (``None``: one frame per message);
    ``counted``, the Python calls inside ``sim.run`` are counted (and the
    wall time of that run means nothing)."""
    topo = Topology.uniform(
        {"x": "east", "y": "west"},
        NetemSpec(latency_ms=LATENCY_MS, rate_mbit=RATE_MBIT),
    )
    sim = Simulator()
    net = topo.build(sim)

    def config(local):
        return StabilizerConfig(
            ["x", "y"],
            {"x": ["x"], "y": ["y"]},
            local,
            chunk_bytes=PIPELINE_CHUNK_BYTES,
            frame_bytes=frame_bytes,
        )

    delivered_bytes = 0
    done_at = [None]

    def on_received(origin, seq, payload):
        nonlocal delivered_bytes
        delivered_bytes += len(payload)
        done_at[0] = sim.now

    tracer = Tracer(
        clock=sim.clock, capacity=4096, enabled=True,
        sample_shift=TRACE_SAMPLE_SHIFT,
    )
    ep_x = TransportEndpoint(net, "x")
    ep_y = TransportEndpoint(net, "y")
    ep_x.tracer = tracer
    ep_y.tracer = tracer
    dp_x = DataPlane(ep_x, config("x"))
    dp_y = DataPlane(ep_y, config("y"), on_received=on_received)

    messages = total_bytes // PIPELINE_CHUNK_BYTES
    dp_x.send(SyntheticPayload(total_bytes))

    start = time.perf_counter()
    if counted:
        _none, calls = count_calls(sim.run, until=60.0)
    else:
        sim.run(until=60.0)
    wall_s = time.perf_counter() - start

    if dp_y.messages_received != messages:
        raise RuntimeError(
            f"only {dp_y.messages_received}/{messages} messages delivered "
            "before the virtual deadline"
        )
    channel = next(iter(dp_x.endpoint.channels().values()))
    result = {
        "mode": "coalesced" if frame_bytes else "per-message",
        "frame_bytes": frame_bytes,
        "total_bytes": total_bytes,
        "messages": messages,
        "wall_s": wall_s,
        "wall_bytes_per_s": delivered_bytes / wall_s,
        "virtual_s": done_at[0],
        "virtual_goodput_mbit": delivered_bytes * 8 / done_at[0] / 1e6,
        "frames_sent": dp_x.frames_sent or messages,
        "max_frame_messages": dp_x.max_frame_messages,
        "retransmissions": channel.retransmissions,
        "trace_events": tracer.emitted,
        "trace_sample_shift": TRACE_SAMPLE_SHIFT,
    }
    if counted:
        result["calls_per_message"] = calls / messages
    return result


def run_pipeline(total_bytes: int = 2 * 1024 * 1024) -> Dict[str, object]:
    """The same transfer per-message and coalesced (:func:`run_transfer`),
    then both again under the profiler — the simulator is deterministic,
    so these are the calls the timed runs made.  ``speedup`` (host time)
    is the coalesced plane's wall-clock bytes/s over the baseline's."""
    results = [
        run_transfer(total_bytes, frame_bytes=None),
        run_transfer(total_bytes, frame_bytes=PIPELINE_FRAME_BYTES),
    ]
    baseline, coalesced = results
    speedup = coalesced["wall_bytes_per_s"] / baseline["wall_bytes_per_s"]
    for result in results:
        counted = run_transfer(total_bytes, result["frame_bytes"], counted=True)
        result["calls_per_message"] = counted["calls_per_message"]
    return {
        "results": results,
        "speedup": speedup,
        "calls_ratio": baseline["calls_per_message"] / coalesced["calls_per_message"],
    }


# ---------------------------------------------------------------------------
# The substrate: timers, link packets, transport frames.
# ---------------------------------------------------------------------------

LAN = NetemSpec(latency_ms=1, rate_mbit=10_000)


def _timers_fired(count: int) -> int:
    sim = Simulator()
    state = {"count": 0}
    for i in range(count):
        sim.call_later(i * 0.001, lambda: state.__setitem__("count", state["count"] + 1))
    sim.run()
    return state["count"]


def _packets_arrived(count: int) -> int:
    sim = Simulator()
    net = Topology.uniform({"a": "g", "b": "g"}, LAN).build(sim)
    seen = {"count": 0}
    net.host("b").bind("x", lambda p: seen.__setitem__("count", seen["count"] + 1))
    for _ in range(count):
        net.send("a", "b", "x", b"", 100)
    sim.run()
    return seen["count"]


def _frames_delivered(count: int) -> int:
    sim = Simulator()
    net = Topology.uniform({"a": "g", "b": "g"}, LAN).build(sim)
    seen = {"count": 0}
    TransportEndpoint(net, "b").accept(
        "s", lambda _peer, _p, _m: seen.__setitem__("count", seen["count"] + 1)
    )
    sender_endpoint = TransportEndpoint(net, "a")
    sender_endpoint.accept("s", _ignore_delivery)
    sender = sender_endpoint.channel("b", "s")
    for _ in range(count):
        sender.send(SyntheticPayload(512))
    sim.run(until=5.0)
    return seen["count"]


def run_sim_kernel(timers: int = 1000, packets: int = 1000, frames: int = 500) -> dict:
    """The substrate's own hot paths, each driven to completion: timers
    through the kernel, packets over a LAN link, 512 B frames over a FIFO
    channel; how many of each arrived.  (Their host cost in calls is the
    ``hotpath`` experiment's.)"""
    return {
        "timers": timers,
        "timers_fired": _timers_fired(timers),
        "packets": packets,
        "packets_arrived": _packets_arrived(packets),
        "frames": frames,
        "frames_delivered": _frames_delivered(frames),
    }


# ---------------------------------------------------------------------------
# The declarations: printer, findings and scales per experiment.
# ---------------------------------------------------------------------------

#: How many times the incremental engine's Python calls per report the
#: brute-force baseline makes at the key cell, by report count (23.3 vs
#: 151.2 at 5,000 reports; 5.66x, 28.3 vs 160.2, while a slot kept its
#: value in a cache object of its own and an unmoved evaluation still
#: called the report step; 3.29x, 48.7 incremental, while the engine's
#: step ran generator frames and a nested reduce was always evaluated).
#: The counts are exact per count, so each is gated against its own
#: measured ratio less :data:`CALLS_TOLERANCE`: room for a call or two
#: more per report, not for a change that gives the saving back.  The
#: wall-clock speed-up of the same cell is printed only: four runs on one
#: box read 2.41x, 2.51x, 1.75x and 3.81x with identical evaluation
#: counts.
HOTPATH_CALLS_RATIO = {1_000: 6.42, 5_000: 6.47, 20_000: 6.57}
CALLS_TOLERANCE = 0.05


def _render_hotpath(result) -> str:
    rows = result["rows"]
    grid = format_table(
        [
            "predicates", "nodes", "incremental rps", "brute rps", "speedup",
            "p50 us", "p99 us", "evaluations", "skipped idx", "skipped sc",
        ],
        [
            (
                r["predicates"],
                r["nodes"],
                f"{r['incremental_rps']:.0f}",
                f"{r['brute_rps']:.0f}",
                f"{r['speedup']:.2f}x",
                f"{r['latency_p50_us']:.1f}",
                f"{r['latency_p99_us']:.1f}",
                r["evaluations"],
                r["skipped_by_index"],
                r["skipped_by_shortcircuit"],
            )
            for r in rows
        ],
        title="Hot path: frontier reports/sec, incremental vs brute force",
    )
    calls = result["calls_per_report"]
    paths = format_counters(
        {
            "calls_per_report": round(calls["incremental"], 2),
            "brute_calls_per_report": round(calls["brute"], 2),
            "wal_record": result["wal_record"],
            "timer_event": result["timer_event"],
            "lone_send_per_peer": result["lone_send"],
            "ack_at_sender": result["ack"],
            "frame_of_one_per_message": result["frame_of_one"]["calls_per_message"],
            "frame_of_four_per_message": result["frame_of_four"]["calls_per_message"],
            "delivered_four_per_message": (
                result["frame_of_four_delivered"]["calls_per_message"]
            ),
            "unobserved_per_message": result["frame_unobserved"]["calls_per_message"],
            "engine_per_frame_observed": (
                result["frame_of_one"]["engine_calls_per_frame"]
            ),
            "engine_per_frame_unobserved": (
                result["frame_unobserved"]["engine_calls_per_frame"]
            ),
        },
        title=(
            f"Python calls per operation (reports at {KEY_PREDICATES} "
            f"predicates x {KEY_NODES} nodes)"
        ),
    )
    return grid + "\n" + paths


@finding("incremental frontiers equal brute force", "every grid cell", kind="exact")
def _frontiers_match(result):
    differ = [
        f"{r['predicates']}x{r['nodes']}"
        for r in result["rows"]
        if not r["frontiers_match"]
    ]
    return not differ, "differ at " + ", ".join(differ) if differ else "all cells"


@finding(
    "the incremental machinery engages",
    "no more evaluations than brute force; index and short-circuit skips",
    kind="exact",
)
def _engages(result):
    rows = result["rows"]
    holds = (
        all(r["evaluations"] <= r["brute_evaluations"] for r in rows)
        and any(r["skipped_by_index"] > 0 for r in rows)
        and any(r["skipped_by_shortcircuit"] > 0 for r in rows)
    )
    evaluations = sum(r["evaluations"] for r in rows)
    brute = sum(r["brute_evaluations"] for r in rows)
    return holds, f"{evaluations} vs {brute} evaluations"


@finding("per-report cost is measured", "0 < p50 <= p99 us, reports/s > 0", kind="wall")
def _measured(result):
    rows = result["rows"]
    holds = all(
        0 < r["latency_p50_us"] <= r["latency_p99_us"]
        and r["incremental_rps"] > 0
        and r["brute_rps"] > 0
        for r in rows
    )
    return holds, f"p99 up to {max(r['latency_p99_us'] for r in rows):.1f} us"


@finding(
    "brute-force calls per report vs incremental",
    f"the measured ratio less {CALLS_TOLERANCE:.0%} (6.47x at 5,000 reports)",
    kind="exact",
)
def _calls_per_report(result):
    calls = result["calls_per_report"]
    ratio = calls["brute"] / calls["incremental"]
    gate = HOTPATH_CALLS_RATIO[result["reports"]] * (1 - CALLS_TOLERANCE)
    return ratio >= gate, f"{ratio:.2f}x (gate {gate:.2f}x)"


# The per-operation budgets: pinned about 10 % above what each path costs
# today, each with what it cost before the changes that shortened it.  A
# change that puts a layer back on one of these paths fails here; raise a
# budget only with the reason in the commit.


def _budget(value: float, budget: float):
    return value <= budget, f"{value:.2f}"


@finding(
    "calls per WAL record",
    "<= 9.5 (8.5; 57.4 before the append path was shortened, 25.5 while "
    "every record was written to the segment on append, 14.9 while each "
    "record was its own frame)",
    kind="exact",
)
def _wal_record(result):
    return _budget(result["wal_record"], 9.5)


@finding(
    "calls per timer event",
    "<= 5.5 (5.0; 9.0 before the handle became the heap entry, "
    "6.0 while run asked _next_time() for every event)",
    kind="exact",
)
def _timer_event(result):
    return _budget(result["timer_event"], 5.5)


@finding(
    "calls per peer of a lone 512 B send",
    "<= 35.5 (24.75; 26.0 while each peer cut its frames off its own "
    "cursor into the send log, 68.75 while a frame of one went through the "
    "coalescing path and a relay call per layer, 41.5 while the chunker "
    "made a Chunk per chunk and a peer's queue took it through a method "
    "call, 37.25 while every packet went through Network.send, 35.25 "
    "while the FIFO kept a second window and launched through _launch, "
    "32.25 while the endpoint's port relayed every packet to its channel "
    "and every sent frame was an object, 29.0 while each peer queued its "
    "own copy of every chunk)",
    kind="exact",
)
def _lone_send(result):
    return _budget(result["lone_send"], 35.5)


@finding(
    "calls per data ACK at its sender",
    "<= 12.0, an ACK retiring a lone frame, from the link to the data "
    "plane (10.75; 16.75 while the endpoint's port relayed every packet "
    "and the RTT estimator called max, min and abs)",
    kind="exact",
)
def _ack(result):
    return _budget(result["ack"], 12.0)


@finding(
    "calls per message of an arrived frame of one",
    "<= 35.5 at a receiver observing the stream (27.8; 29.8 while the "
    "frontier engine's advance went through a Stabilizer forwarder and "
    "a report call per unmoved evaluation, 31.3 while a "
    "receiver nothing delivered to still reassembled, 32.3 while an "
    "arrival's received grant went through grant_local, 72.3 before the "
    "frame became the unit of arrival, 68.3 while every chunk went "
    "through a Chunk and the any-order reassembler, 58.5 while a value "
    "went through set_all_types, _on_table_update and the other relays "
    "to the ACK table, 48.5 while the epoch envelope carried a marker, "
    "47.5 while a closure relayed the frame and the engine's step ran "
    "generator frames)",
    kind="exact",
)
def _frame_of_one(result):
    return _budget(result["frame_of_one"]["calls_per_message"], 35.5)


@finding(
    "calls per message of an arrived frame of four",
    "<= 10.2, 8 KB chunks four to an object, the trace_bulk path (7.0; "
    "7.5 while the engine's advance went through a Stabilizer forwarder, "
    "9.0 while a receiver nothing delivered to still reassembled, "
    "9.25 while the received grant went through grant_local, "
    "28.25 with the reassembler and a SyntheticPayload per part, 16.0 "
    "with the relays, 13.5 with the epoch marker, 13.25 with the "
    "receiver closure and the engine's generator frames)",
    kind="exact",
)
def _frame_of_four(result):
    return _budget(result["frame_of_four"]["calls_per_message"], 10.2)


@finding(
    "calls per message of an arrived frame of four that is delivered",
    "<= 10.2 at a receiver with a delivery handler, which reassembles "
    "and delivers every message (9.25; 9.75 while the engine's advance "
    "went through a Stabilizer forwarder)",
    kind="exact",
)
def _delivered_frame_of_four(result):
    return _budget(result["frame_of_four_delivered"]["calls_per_message"], 10.2)


@finding(
    "calls per message of an arrival nobody observes",
    "<= 9.1, the wan_small receivers' whole path (5.76; 7.26 while a "
    "receiver nothing delivered to still reassembled, 8.27 while "
    "the received grant went through grant_local to the report batcher "
    "that the origin's data ACK replaced, 10.52 while a "
    "closure relayed the frame and every message went through an empty "
    "delivery-handler loop)",
    kind="exact",
)
def _unobserved_message(result):
    return _budget(result["frame_unobserved"]["calls_per_message"], 9.1)


@finding(
    "incremental calls per report",
    "<= 25.7 at the key cell (23.3 at 5,000 reports; 28.3 while a slot "
    "kept its value in a cache object of its own, every evaluation "
    "called for a witness and a report and every advance went through a "
    "Stabilizer forwarder, 48.7 while the "
    "engine's step ran generator frames and a nested reduce was always "
    "evaluated)",
    kind="exact",
)
def _report_calls(result):
    return _budget(result["calls_per_report"]["incremental"], 25.7)


@finding(
    "engine calls per arrival nobody observes",
    "<= 5.0, below the observed arrival's (3.0, the wan_small receivers; "
    "4.0 while the received grant went through grant_local to the "
    "report batcher, "
    "18.0 while the frontier engine was called to say so)",
    kind="exact",
)
def _unobserved(result):
    quiet = result["frame_unobserved"]["engine_calls_per_frame"]
    observed = result["frame_of_one"]["engine_calls_per_frame"]
    return quiet <= 5.0 and quiet < observed, f"{quiet:.2f} vs {observed:.2f}"


@finding(
    "engine cost of an arrival is per frame, not per message",
    "frame of four within 3 calls of a frame of one; a message of it "
    "pays a quarter (25.0 per frame, 27.0 through a Stabilizer forwarder "
    "and a report call per unmoved evaluation, 28.0 through grant_local, 51.0 "
    "with the relays, 41.0 with the "
    "engine's generator frames)",
    kind="exact",
)
def _per_frame(result):
    lone, four = result["frame_of_one"], result["frame_of_four"]
    holds = (
        lone["engine_calls_per_frame"] > 0
        and abs(four["engine_calls_per_frame"] - lone["engine_calls_per_frame"]) <= 3.0
        and four["calls_per_message"]
        <= lone["calls_per_message"] - 0.7 * lone["engine_calls_per_frame"]
    )
    return holds, (
        f"{four['engine_calls_per_frame']:.2f} vs "
        f"{lone['engine_calls_per_frame']:.2f} per frame"
    )


HOTPATH = Experiment(
    name="hotpath",
    help="the frontier engine's reports/sec and the per-operation call budgets",
    run=run_hotpath,
    args=(),
    scales={
        "report": {"predicate_counts": (4, 16), "node_counts": (2, 8), "reports": 1_000},
        "default": {"reports": 5_000},
        "full": {"reports": 20_000},
    },
    render=_render_hotpath,
    expectations=(
        _frontiers_match, _engages, _measured, _calls_per_report, _report_calls,
        _wal_record, _timer_event, _lone_send, _ack, _frame_of_one,
        _frame_of_four, _delivered_frame_of_four, _unobserved,
        _unobserved_message, _per_frame,
    ),
)

#: How many times the coalesced plane's Python calls per delivered
#: message the per-message baseline takes, by transfer size, as measured
#: when the gate was set: 42.10 vs 21.94 at 2 MiB, 50.24 vs 29.05 at 8 MiB
#: (the longer transfer then stalled on a 4 MiB send window, whose
#: bookkeeping both planes shared).  With no window both sizes read 18.80
#: vs 8.79 (2.14x), and 19.80 vs 8.82 (2.25x) since reassembly is a method
#: of its own, one call per arrived frame at a receiver that delivers.
#: Gated like :data:`HOTPATH_CALLS_RATIO`.  The wall-clock speed-up is
#: printed only: it sat at 1.9-2.0x, on the edge of the 2.0x it used to be
#: gated on, and a loaded machine decided which side.
PIPELINE_CALLS_RATIO = {2 * 1024 * 1024: 1.92, 8 * 1024 * 1024: 1.73}


def _render_pipeline(result) -> str:
    return format_table(
        [
            "mode", "msgs", "frames", "calls/msg", "wall MB/s", "virt Mbit/s",
            "rexmit",
        ],
        [
            (
                r["mode"],
                r["messages"],
                r["frames_sent"],
                f"{r['calls_per_message']:.1f}",
                f"{r['wall_bytes_per_s'] / 1e6:.1f}",
                f"{r['virtual_goodput_mbit']:.1f}",
                r["retransmissions"],
            )
            for r in result["results"]
        ],
        title=(
            f"Pipelined data plane on {RATE_MBIT:.0f} Mbit / "
            f"{LATENCY_MS:.0f} ms ({result['calls_ratio']:.2f}x fewer calls per "
            f"message; wall speedup {result['speedup']:.1f}x, not gated)"
        ),
    )


@finding("coalescing cuts transport frames", "at least 8x fewer frames", kind="exact")
def _fewer_frames(result):
    baseline, coalesced = result["results"]
    return (
        coalesced["frames_sent"] * 8 <= baseline["frames_sent"],
        f"{coalesced['frames_sent']} vs {baseline['frames_sent']}",
    )


@finding(
    "per-message calls per delivered message vs coalesced",
    f"the measured ratio less {CALLS_TOLERANCE:.0%} (1.92x at 2 MiB)",
    kind="exact",
)
def _fewer_calls(result):
    total_bytes = result["results"][0]["total_bytes"]
    gate = PIPELINE_CALLS_RATIO[total_bytes] * (1 - CALLS_TOLERANCE)
    ratio = result["calls_ratio"]
    return ratio >= gate, f"{ratio:.2f}x (gate {gate:.2f}x)"


# The frames save headers, so virtual goodput may inch up, never down.
@finding("virtual goodput does not fall", "the link rate is the link rate")
def _goodput_holds(result):
    baseline, coalesced = (r["virtual_goodput_mbit"] for r in result["results"])
    return coalesced >= baseline, f"{coalesced:.2f} vs {baseline:.2f} Mbit/s"


DATAPLANE_PIPELINE = Experiment(
    name="dataplane_pipeline",
    help="frame coalescing vs per-message sends on one WAN link",
    run=run_pipeline,
    args=(),
    scales={
        "report": {"total_bytes": 2 * 1024 * 1024},
        "default": {"total_bytes": 2 * 1024 * 1024},
        "full": {"total_bytes": 8 * 1024 * 1024},
    },
    render=_render_pipeline,
    expectations=(_fewer_frames, _fewer_calls, _goodput_holds),
)


def _render_sim_kernel(result) -> str:
    return format_table(
        ["path", "sent", "arrived"],
        [
            ("timer events", result["timers"], result["timers_fired"]),
            ("LAN packets", result["packets"], result["packets_arrived"]),
            ("512 B FIFO frames", result["frames"], result["frames_delivered"]),
        ],
        title="Substrate hot paths, each driven to completion",
    )


@finding("every timer fires", "all of them", kind="exact")
def _timers(result):
    return result["timers_fired"] == result["timers"], f"{result['timers_fired']}"


@finding("every packet arrives", "all of them", kind="exact")
def _packets(result):
    return result["packets_arrived"] == result["packets"], f"{result['packets_arrived']}"


@finding("every frame is delivered", "all of them", kind="exact")
def _frames(result):
    return result["frames_delivered"] == result["frames"], f"{result['frames_delivered']}"


SIM_KERNEL = Experiment(
    name="sim_kernel",
    help="the substrate's timers, link packets and transport frames",
    run=run_sim_kernel,
    args=(),
    scales={"report": {}, "default": {}, "full": {}},
    render=_render_sim_kernel,
    expectations=(_timers, _packets, _frames),
)
