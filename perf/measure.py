"""Run repetitions of one workload, check the outputs, derive the metrics.

Two kinds of time, always labelled.  *Host* time is the wall clock of this
Python process: what a user of the simulator, and every optimisation, pays.
*Virtual* time is what the modelled WAN deployment would take: what the
paper reports, and bit-reproducible under a seed.

Host time is reported at a nominal machine speed.  The box this runs on is a
shared virtual machine whose speed moves by up to 1.8x for minutes at a time
and by tens of percent within a second; raw wall time then says more about
the neighbours than about the program.  So a short fixed reference burst is
timed between slices of the measured work, and host times are divided by how
much slower than nominal the bursts ran (the *machine factor*).  The raw
times and the factor are kept in every record.
"""

import gc
import heapq
import resource
import statistics
import time
from math import ceil

from repro import ReproError

from perf.workloads import BUILDERS

#: name -> (unit, clock or "count", statistic, meaning).  ``exact`` metrics
#: repeat to the last digit for one seed and scale, which is checked across
#: the repetitions of every run.
END_TO_END = {
    "wall_us_per_send": (
        "us", "host", "median",
        "wall time of the timed region / stabilized sends, at nominal speed"),
    "stable_p50_ms": (
        "ms", "virtual", "exact",
        "send->stable latency of the headline predicate, median"),
    "stable_p99_ms": (
        "ms", "virtual", "exact",
        "send->stable latency of the headline predicate, 99th percentile"),
    "wire_bytes_per_send": (
        "bytes", "count", "exact",
        "bytes put on every link (data, control, acks, retransmissions) / sends"),
    "setup_s": (
        "s", "host", "median",
        "build topology and cluster, compile predicates, generate the inputs"),
    "peak_rss_mb": (
        "MB", "host", "once",
        "peak resident set of the process that ran the workload"),
    "virtual_span_s": (
        "s", "virtual", "exact",
        "first send to last stabilization; throughput is sends / this"),
}
EXACT = tuple(n for n, spec in END_TO_END.items() if spec[2] == "exact")

#: Host seconds one reference burst takes on the idle box that defined the
#: benchmark.  Host-time metrics are reported at this machine speed.
NOMINAL_BURST_S = 0.00095
#: The workloads lose about three quarters of what the burst loses when the
#: machine slows.  Fitted over 90 repetitions of three workloads in one noisy
#: hour (machine 1.0x to 1.8x slow): the quartile distance of the run medians
#: was 22/10/14 % raw, 12/6/3 % at 1.0 and 6/3/3 % at 0.75.
BURST_SENSITIVITY = 0.75
#: Virtual seconds between two reference bursts: 15 to 30 ms of host work.
SLICE_VIRTUAL_S = 0.25
MIN_REPETITIONS = 3
MIN_SETUPS = 9
#: Never start another repetition this late; the caller allows 180 s in all.
HARD_STOP_S = 100.0


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def quartile_spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class _Cell:
    __slots__ = ("total", "seen")

    def __init__(self):
        self.total = 0
        self.seen = {}

    def note(self, value):
        self.total += value
        self.seen[value & 255] = self.total
        return self.total


def reference_burst(count=1500, push=heapq.heappush, pop=heapq.heappop,
                    clock=time.perf_counter):
    """A fixed piece of interpreter-bound work (heap, dict, attribute and
    method traffic, like the simulator's own); returns the host seconds it
    took.  It is the yardstick for how fast this machine is *right now*."""
    started = clock()
    heap = []
    cell = _Cell()
    for i in range(count):
        push(heap, ((i * 7919) % 10007, i, cell))
        cell.note(i)
        if i & 1:
            pop(heap)[2].note(1)
    return clock() - started


def machine_factor(burst_seconds):
    """How much slower than nominal the work between these reference bursts
    ran: ``BURST_SENSITIVITY`` of what the bursts themselves lost."""
    slowdown = statistics.fmean(burst_seconds) / NOMINAL_BURST_S
    return 1.0 + BURST_SENSITIVITY * (slowdown - 1.0)


def build(name, seed, scale):
    """One set-up, timed between reference bursts: (scenario, host seconds
    at nominal machine speed)."""
    gc.collect()
    bursts = [reference_burst(), reference_burst()]
    started = time.perf_counter()
    scn = BUILDERS[name](seed, scale)
    setup_s = time.perf_counter() - started
    bursts += [reference_burst(), reference_burst()]
    return scn, setup_s / machine_factor(bursts)


def run(scn, reference=True):
    """The timed region: run the simulator from the first arrival to the
    stop condition, a slice of virtual time at a time.  It stops at the first
    slice boundary after every send is stable, or at the virtual deadline.
    Between slices a reference burst samples the machine's speed, so the
    yardstick sees the same noise as the work.  Returns (host seconds in the
    simulator, machine factor)."""
    sim, done, deadline = scn.sim, scn.done, scn.deadline
    clock = time.perf_counter
    bursts = [reference_burst()] if reference else []
    wall_s = 0.0
    while not done.triggered and sim.now < deadline:
        mark = clock()
        sim.run(until=min(sim.now + SLICE_VIRTUAL_S, deadline))
        wall_s += clock() - mark
        if reference:
            bursts.append(reference_burst())
    return wall_s, machine_factor(bursts) if reference else None


def repetition(name, seed, scale, profiler=None, collect=None):
    """Build, run and check one fresh scenario; returns its measurements.
    A profiled repetition takes no reference bursts: its host time is only
    ever compared with the raw time of the repetition before it.
    ``collect(scn)`` reads counters off the live scenario before it closes.
    """
    scn, setup_s = build(name, seed, scale)
    stop = None
    wall_s = factor = None
    if profiler is not None:
        profiler.enable()
    try:
        wall_s, factor = run(scn, reference=profiler is None)
    except ReproError as exc:  # the program itself broke
        stop = repr(exc)
    finally:
        if profiler is not None:
            profiler.disable()

    stable = len(scn.latencies)
    if stop is not None or stable != scn.attempted:
        scn.violate(f"stopped at virtual t={scn.sim.now:.3f} s with {stable} "
                    f"of {scn.attempted} stable: {stop or 'deadline'}")
    for check in scn.checks:
        check(scn)
    rep = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "machine_factor": factor,
        "attempted": scn.attempted,
        "stable": stable,
        "violations": list(scn.violations),
        "config": scn.config,
    }
    if stable:
        ordered = sorted(scn.latencies)
        rep["exact"] = {
            "stable_p50_ms": percentile(ordered, 0.50) * 1e3,
            "stable_p99_ms": percentile(ordered, 0.99) * 1e3,
            "wire_bytes_per_send": sum(
                link.stats.bytes_sent for link in scn.net.links.values()
            ) / stable,
            "virtual_span_s": scn.last_stable - scn.first_send,
        }
    if collect is not None:
        rep["counters"] = collect(scn)
    scn.close()
    return rep


def time_setups(name, seed, scale, count):
    """Extra set-ups, built and torn down without running, so that the
    reported set-up time is a median of enough samples to be steady."""
    samples = []
    for _ in range(count):
        scn, setup_s = build(name, seed, scale)
        samples.append(setup_s)
        scn.close()
    return samples


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(reps):
    """Fold repetitions of one seeded scenario into (violations, failed).

    Virtual-time and count results must be identical in every repetition;
    a difference is a correctness failure, not noise.
    """
    violations = [v for rep in reps for v in rep["violations"]]
    first = reps[0]
    for i, rep in enumerate(reps[1:], start=2):
        for key in ("attempted", "stable", "exact"):
            if rep.get(key) != first.get(key):
                violations.append(
                    f"repetition {i} differs from repetition 1 in {key}: "
                    f"{rep.get(key)} != {first.get(key)}"
                )
    failed = max(rep["attempted"] - rep["stable"] for rep in reps)
    if failed:
        violations.append(f"{failed} of {first['attempted']} sends not stable")
    return violations, failed


def end_to_end(name, seed, scale, seconds):
    """The untraced pass: timed repetitions for ``seconds`` of host time
    (at least ``MIN_REPETITIONS``), after one discarded warm-up.

    The warm-up is a full repetition: the first one in a process also grows
    the heap to the workload's size, and read up to 15 % slow."""
    repetition(name, seed, scale)
    reps = []
    started = time.perf_counter()
    while True:
        reps.append(repetition(name, seed, scale))
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPETITIONS and elapsed >= seconds:
            break
        if elapsed >= HARD_STOP_S:
            break
    setups = [rep["setup_s"] for rep in reps]
    setups += time_setups(name, seed, scale, max(0, MIN_SETUPS - len(reps)))
    violations, failed = summarize(reps)
    first = reps[0]
    stable = first["stable"]
    timed = [rep for rep in reps if rep["stable"] and rep["wall_s"] is not None]
    raw = [rep["wall_s"] / rep["stable"] * 1e6 for rep in timed]
    factors = [rep["machine_factor"] for rep in timed]
    walls = [us / factor for us, factor in zip(raw, factors)]
    values = dict(first.get("exact", {}))
    if walls:
        values["wall_us_per_send"] = statistics.median(walls)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = peak_rss_mb()
    return {
        "attempted": first["attempted"],
        "failed": failed,
        "samples": stable,
        "violations": violations,
        "repetitions": len(reps),
        "values": values,
        "wall_us_per_send_repetitions": walls,
        "raw_wall_us_per_send_repetitions": raw,
        "machine_factor_repetitions": factors,
        "setup_s_samples": setups,
        "config": first["config"],
    }
