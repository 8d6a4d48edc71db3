"""The five workloads: seeded inputs, a fresh cluster, and the load generator.

Each ``build_<name>(seed, scale)`` is one *set-up*: it generates the inputs
from the seed, builds topology, simulator and cluster through the public
API, registers the predicates and arms the load generator.  It returns a
:class:`Scenario`; ``measure.py`` runs and checks it.  The program under
test sees only the generated inputs: arrival times, payload sizes, keys.

The load generator is the thread that steps the simulator.  Open-loop
arrivals are chained ``sim.call_at`` callbacks at the scheduled times, so a
send is issued at exactly its due time in virtual time: the generator is
never late by construction, and no lateness is reported as if measured.
"""

import random
from math import ceil

from repro import (
    ReproError,
    Simulator,
    StabilizerCluster,
    StabilizerConfig,
    build_sharded_cluster,
    standard_predicates,
)
from repro.sim import RngRegistry
from repro.testing import MemoryFileSystem, SyntheticPayload
from repro.workloads import synthesize_trace

from perf import topologies

CHUNK_BYTES = 8 * 1024
#: Virtual seconds after the last arrival by which every send must be stable.
DEADLINE_S = 10.0


class Scenario:
    """One built repetition, ready to run.

    ``attempted`` counts sends (one per sequence number) the generator will
    issue; ``latencies`` fills with one send→stable sample per send of the
    headline predicate, in virtual seconds.
    """

    def __init__(self, sim, net, cluster, attempted, config):
        self.sim = sim
        self.net = net
        self.cluster = cluster
        self.attempted = attempted
        # What the workload is, for the result file.
        self.config = dict(config, sends=attempted)
        self.send_errors = 0
        self.latencies = []
        self.first_send = None
        self.last_stable = 0.0
        self.violations = []
        self.done = sim.event()
        self.deadline = 0.0
        #: Workload-specific output checks, run after the timed region.
        self.checks = []

    def nodes(self):
        return list(self.cluster)

    def violate(self, message):
        if len(self.violations) < 20:
            self.violations.append(message)

    def stabilized(self, latency):
        self.latencies.append(latency)
        self.last_stable = self.sim.now
        if len(self.latencies) == self.attempted and not self.done.triggered:
            self.done.succeed()

    def close(self):
        self.cluster.close()


def _network(topo, seed):
    sim = Simulator()
    return sim, topo.build(sim, RngRegistry(seed))


def _arrival_times(rng, count, rate):
    """A Poisson process at ``rate``/s conditioned on ``count`` arrivals in
    ``count / rate`` seconds, i.e. sorted uniform times: the offered load is
    the same for every seed, the spacing is not."""
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


def _payload_sizes(rng, count, mean):
    """Sizes uniform within half of ``mean`` either side.  On an unloaded
    path every send would otherwise take the identical virtual time, on
    every seed, and the latency percentiles would be constants."""
    return [rng.randint(mean // 2, mean + mean // 2) for _ in range(count)]


def _open_loop(scn, times, fire):
    """Issue ``fire(i)`` at virtual time ``times[i]``, one pending timer at a
    time so the event heap stays as small as the program keeps it."""
    sim = scn.sim
    last = len(times) - 1
    scn.deadline = times[-1] + DEADLINE_S

    def arrive(i):
        try:
            fire(i)
        except ReproError as exc:
            scn.send_errors += 1
            scn.violate(f"send {i} raised {exc!r}")
        if i < last:
            sim.call_at(times[i + 1], arrive, i + 1)

    scn.first_send = times[0]
    sim.call_at(times[0], arrive, 0)


class _StreamRecorder:
    """Times every sequence number of one origin's stream through frontier
    monitors: the headline predicate yields the latency samples, every
    predicate is held to "each send stabilizes exactly once, in order"."""

    def __init__(self, scn, sender, headline, keys):
        self.scn = scn
        self.sender = sender
        self.headline = headline
        self.send_times = []  # send_times[seq - 1]
        self.frontiers = {key: 0 for key in keys}
        for key in keys:
            sender.monitor_stability_frontier(
                key, self._headline if key == headline else self._other(key)
            )
        scn.checks.append(self._check)

    def send(self, payload):
        sender = self.sender
        first = sender.last_sent_seq() + 1
        last = sender.send(payload)
        self.send_times.extend([self.scn.sim.now] * (last - first + 1))

    def _advance(self, key, origin, frontier, old):
        if origin != self.sender.name:
            return None
        seen = self.frontiers[key]
        if old != seen or frontier <= seen:
            self.scn.violate(
                f"{key}: frontier moved {old}->{frontier} after reporting {seen}"
            )
            return None
        self.frontiers[key] = frontier
        return seen

    def _headline(self, origin, frontier, old):
        seen = self._advance(self.headline, origin, frontier, old)
        if seen is None:
            return
        scn = self.scn
        now = scn.sim.now
        times = self.send_times
        for seq in range(seen, frontier):  # seq - 1 for seq in seen+1..frontier
            scn.stabilized(now - times[seq])

    def _other(self, key):
        def monitor(origin, frontier, old):
            self._advance(key, origin, frontier, old)

        return monitor

    def _check(self, scn):
        sender = self.sender
        sent = sender.last_sent_seq()
        if sent != scn.attempted - scn.send_errors:
            scn.violate(f"{sent} sequence numbers issued, {scn.attempted} planned")
        for key, seen in self.frontiers.items():
            now = sender.get_stability_frontier(key)
            if not seen == now == sent:
                scn.violate(f"{key}: monitor saw {seen}, frontier {now}, sent {sent}")
        if sender.delivery_watermark() != sent:
            scn.violate(
                f"delivery watermark {sender.delivery_watermark()} != {sent}"
            )
        for node in scn.nodes():
            received = node.stats()["messages_received"]
            if node is not sender and received != sent:
                scn.violate(f"{node.name} received {received} of {sent}")


def _wan(seed, scale, topo, predicates, headline, config):
    sends = max(1, round(config["sends"] * scale))
    rng = random.Random(seed)
    times = _arrival_times(rng, sends, config["rate_per_s"])
    sizes = _payload_sizes(rng, sends, config["payload_bytes"])
    sim, net = _network(topo, seed)
    sender_name = topologies.CLOUDLAB_SENDER
    cluster = StabilizerCluster(
        net,
        StabilizerConfig.from_topology(
            topo,
            sender_name,
            predicates=predicates,
            control_interval_s=config["control_interval_s"],
        ),
    )
    scn = Scenario(sim, net, cluster, sends,
                   dict(config, headline=headline, predicates=predicates))
    recorder = _StreamRecorder(scn, cluster[sender_name], headline, list(predicates))
    _open_loop(scn, times, lambda i: recorder.send(bytes(sizes[i])))
    return scn


def build_wan_small(seed, scale):
    config = {
        "topology": "cloudlab (Table II), 5 nodes, sender UT1",
        "engine": "acktable",
        "arrivals": "open loop, Poisson",
        "rate_per_s": 200.0,
        "sends": 10_000,
        "payload_bytes": 512,  # mean; uniform 256..768
        "control_interval_s": 0.005,
    }
    predicates = {"all": "MIN($ALLWNODES - $MYWNODE)"}
    return _wan(seed, scale, topologies.cloudlab(), predicates, "all", config)


def build_lossy_wan(seed, scale):
    config = {
        "topology": "cloudlab (Table II), 5 nodes, sender UT1",
        "loss_rate": 0.002,
        "jitter_ms": 2.0,
        "engine": "acktable",
        "arrivals": "open loop, Poisson",
        "rate_per_s": 200.0,
        "sends": 10_000,
        "payload_bytes": 512,  # mean; uniform 256..768
        "control_interval_s": 0.005,
    }
    predicates = {
        "all": "MIN($ALLWNODES - $MYWNODE)",
        "third": "KTH_MAX(3, $ALLWNODES)",
    }
    topo = topologies.cloudlab(config["loss_rate"], config["jitter_ms"])
    return _wan(seed, scale, topo, predicates, "all", config)


def build_trace_bulk(seed, scale):
    config = {
        "topology": "ec2 emulation (Table I), 8 nodes, 4 regions, sender NC-1",
        "engine": "acktable",
        "arrivals": "open loop, trace replay, each request up to 50 ms late",
        "trace_scale": 0.05,
        "trace_seed": 7,
        "arrival_jitter_s": 0.05,
        "chunk_bytes": CHUNK_BYTES,
        "control_interval_s": 0.01,
        "control_batch": 64,
        "control_fanout": "origin",
    }
    # The paper has one trace, and at 98 % link utilisation another trace is
    # another experiment (p50 3.4 to 6.6 s over six trace seeds).  So the
    # trace is fixed and the seed moves when each request arrives.
    rng = random.Random(seed)
    records = synthesize_trace(config["trace_scale"] * scale, config["trace_seed"])
    arrivals = sorted(
        (r.time_s + rng.uniform(0.0, config["arrival_jitter_s"]), r.size_bytes)
        for r in records
    )
    topo = topologies.ec2()
    sim, net = _network(topo, seed)
    cluster = StabilizerCluster(
        net,
        StabilizerConfig.from_topology(
            topo,
            topologies.EC2_SENDER,
            chunk_bytes=CHUNK_BYTES,
            control_interval_s=config["control_interval_s"],
            control_batch=config["control_batch"],
            control_fanout=config["control_fanout"],
        ),
    )
    # Only the sender evaluates predicates here, as in the paper's Fig. 5.
    sender = cluster[topologies.EC2_SENDER]
    predicates = standard_predicates(topo.groups(), topologies.EC2_SENDER)
    for key, source in predicates.items():
        sender.register_predicate(key, source)
    chunks = sum(max(1, ceil(size / CHUNK_BYTES)) for _, size in arrivals)
    scn = Scenario(sim, net, cluster, chunks,
                   dict(config, files=len(records), headline="AllWNodes",
                        predicates=predicates))
    recorder = _StreamRecorder(scn, sender, "AllWNodes", list(predicates))
    _open_loop(
        scn,
        [at for at, _ in arrivals],
        lambda i: recorder.send(SyntheticPayload(arrivals[i][1])),
    )
    return scn


def build_durable_waitfor(seed, scale):
    config = {
        "topology": "3 zones x 2 nodes, 10 ms one way, 100 Mbit/s, sender n00",
        "engine": "acktable",
        "arrivals": "closed loop, 8 clients, send then waitfor",
        "clients": 8,
        "think_ms_mean": 1.0,
        "sends": 6_000,
        "payload_bytes": 256,  # mean; uniform 128..384
        "durability": "MemoryFileSystem, group commit 8 records / 20 ms",
    }
    sends = max(config["clients"], round(config["sends"] * scale))
    rng = random.Random(seed)
    # Seeded per-operation think times; they are the workload's only input
    # besides the payload, and what makes two seeds differ.
    think = [rng.expovariate(1e3 / config["think_ms_mean"]) for _ in range(sends)]
    sizes = _payload_sizes(rng, sends, config["payload_bytes"])
    topo = topologies.zones(3, 2)
    sim, net = _network(topo, seed)
    predicates = {
        "durable": "MIN($ALLWNODES.persisted)",
        "durable2": "KTH_MAX(2, $ALLWNODES.persisted)",
    }
    cluster = StabilizerCluster(
        net,
        StabilizerConfig.from_topology(
            topo,
            "n00",
            predicates=predicates,
            durability=True,
            durability_group_commit_batch=8,
            durability_group_commit_interval_s=0.020,
        ),
        fs_factory=lambda name: MemoryFileSystem(seed),
    )
    scn = Scenario(sim, net, cluster, sends,
                   dict(config, headline="durable", predicates=predicates))
    # Closed loop: it ends when the last client does, well before this.
    scn.deadline = DEADLINE_S + sends * 0.010
    sender = cluster["n00"]
    operations = iter(range(sends))  # shared: each client takes the next one
    stable_seqs = set()

    def client():
        for op in operations:
            yield think[op]
            sent_at = sim.now
            if scn.first_send is None:
                scn.first_send = sent_at
            try:
                seq = sender.send(bytes(sizes[op]))
            except ReproError as exc:
                scn.send_errors += 1
                scn.violate(f"send {op} raised {exc!r}")
                continue
            yield sender.waitfor(seq, "durable")
            if seq in stable_seqs:
                scn.violate(f"seq {seq} stabilized twice")
            stable_seqs.add(seq)
            if sender.get_stability_frontier("durable") < seq:
                scn.violate(f"waitfor({seq}) released below the frontier")
            scn.stabilized(sim.now - sent_at)

    for k in range(config["clients"]):
        sim.spawn(client(), name=f"client-{k}")

    def check(scn):
        sent = sender.last_sent_seq()
        if len(stable_seqs) != sent or sent != scn.attempted - scn.send_errors:
            scn.violate(f"{len(stable_seqs)} stable of {sent} sent, "
                        f"{scn.attempted} planned")
        for key in predicates:
            if sender.get_stability_frontier(key) != sent:
                scn.violate(f"{key}: frontier "
                            f"{sender.get_stability_frontier(key)} != {sent}")
        if sender.delivery_watermark() != sent:
            scn.violate(f"delivery watermark {sender.delivery_watermark()} != {sent}")
        # Durability honesty: what the sender believes each node persisted
        # of its stream may not exceed what that node's WAL has synced.
        for node in scn.nodes():
            key = f"claim_{node.name}"
            sender.register_predicate(key, f"MIN($WNODE_{node.name}.persisted)")
            claimed = sender.get_stability_frontier(key)
            synced = node.durability.watermark(sender.name)
            if claimed > synced:
                scn.violate(f"{node.name} claims persisted {claimed}, "
                            f"WAL synced {synced}")

    scn.checks.append(check)
    return scn


def build_sharded_keys(seed, scale):
    config = {
        "topology": "4 zones x 2 nodes, 10 ms one way, 100 Mbit/s",
        "engine": "acktable",
        "arrivals": "open loop, Poisson, each send at its key's primary owner",
        "rate_per_s": 500.0,
        "sends": 12_000,
        "payload_bytes": 512,  # mean; uniform 256..768
        "keys": 100_000,
        "shard_count": 16,
        "shard_replication": 3,
        "control_interval_s": 0.005,
    }
    sends = max(1, round(config["sends"] * scale))
    rng = random.Random(seed)
    times = _arrival_times(rng, sends, config["rate_per_s"])
    keys = [rng.randrange(config["keys"]) for _ in range(sends)]
    sizes = _payload_sizes(rng, sends, config["payload_bytes"])
    topo = topologies.zones(4, 2)
    sim, net = _network(topo, seed)
    predicates = {"all": "MIN($SHARDWNODES - $MYWNODE)"}
    cluster = build_sharded_cluster(
        net,
        predicates,
        shard_count=config["shard_count"],
        shard_replication=config["shard_replication"],
        control_interval_s=config["control_interval_s"],
    )
    scn = Scenario(sim, net, cluster, sends,
                   dict(config, headline="all", predicates=predicates))
    shard_map = cluster.shard_map
    owners = [cluster[shard_map.owner_for_key(key)] for key in keys]
    streams = {}  # (origin, shard) -> [sent, stable]

    def fire(i):
        node, key = owners[i], keys[i]
        sent_at = sim.now
        seq = node.send(bytes(sizes[i]), key=key)
        stream = streams.setdefault((node.name, node.shard_of(key)), [0, 0])
        stream[0] += 1
        if seq != stream[0]:
            scn.violate(f"send {i} got seq {seq}, stream is at {stream[0]}")

        def stable(event):
            stream[1] += 1
            if event.value != stream[1]:
                scn.violate(f"seq {event.value} stabilized out of order")
            scn.stabilized(sim.now - sent_at)

        node.waitfor(seq, "all", key=key).add_callback(stable)

    _open_loop(scn, times, fire)

    def check(scn):
        if sum(sent for sent, _ in streams.values()) != scn.attempted - scn.send_errors:
            scn.violate("not every planned send was issued")
        for (origin, shard), (sent, stable) in streams.items():
            node = cluster[origin]
            frontier = node.get_stability_frontier("all", shard=shard)
            watermark = node.shard_stats(shard)["dataplane.delivery_watermark"]
            if not sent == stable == frontier == watermark:
                scn.violate(
                    f"{origin}/s{shard}: sent {sent}, stable {stable}, "
                    f"frontier {frontier}, delivery watermark {watermark}"
                )
            for owner in shard_map.owners(shard):
                seen = cluster[owner].get_stability_frontier(
                    "all", origin, shard=shard
                )
                if owner != origin and seen > sent:
                    scn.violate(f"{owner}/s{shard}: frontier {seen} > sent {sent}")

    scn.checks.append(check)
    return scn


BUILDERS = {
    "wan_small": build_wan_small,
    "trace_bulk": build_trace_bulk,
    "lossy_wan": build_lossy_wan,
    "durable_waitfor": build_durable_waitfor,
    "sharded_keys": build_sharded_keys,
}
