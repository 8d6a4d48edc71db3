"""DurabilityManager tests: group commit, fsyncgate poisoning, recovery,
compaction, and the crash-point sweep over the WAL commit protocol."""

import pytest

from repro.core import (
    DurabilityManager,
    StabilizerCluster,
    StabilizerConfig,
    restore_state,
    snapshot_state,
)
from repro.errors import StabilizerError
from repro.net import NetemSpec, Topology
from repro.sim import Simulator
from repro.storage.faultio import MemoryFileSystem
from repro.transport.messages import SyntheticPayload

NODES = ["a", "b"]
GROUPS = {"east": ["a"], "west": ["b"]}


def dm_config(batch=4, interval=0.01, segment_bytes=4096, local="a"):
    return StabilizerConfig(
        NODES,
        GROUPS,
        local,
        durability=True,
        durability_group_commit_batch=batch,
        durability_group_commit_interval_s=interval,
        durability_segment_bytes=segment_bytes,
    )


def build_dm(batch=4, interval=0.01, segment_bytes=4096, fs=None, seed=0):
    sim = Simulator()
    fs = fs if fs is not None else MemoryFileSystem(seed=seed)
    durable = []
    dm = DurabilityManager(
        sim,
        dm_config(batch, interval, segment_bytes),
        fs=fs,
        on_durable=lambda tops: durable.extend(tops.items()),
    )
    return sim, fs, dm, durable


# ---------------------------------------------------------------------------
# Group commit.
# ---------------------------------------------------------------------------


def test_nothing_durable_before_fsync():
    sim, fs, dm, durable = build_dm(batch=100, interval=0.05)
    for seq in range(1, 4):
        dm.append("a", seq, b"payload-%d" % seq)
    assert durable == []
    assert dm.watermark("a") == 0
    assert dm.pending() == 3


def test_batch_size_triggers_immediate_commit():
    sim, fs, dm, durable = build_dm(batch=3, interval=10.0)
    for seq in range(1, 4):
        dm.append("a", seq, b"x")
    # Three appends hit the batch threshold: committed with no timer.
    assert durable == [("a", 3)]
    assert dm.watermark("a") == 3
    assert dm.group_commits == 1


def test_interval_timer_commits_small_batches():
    sim, fs, dm, durable = build_dm(batch=100, interval=0.02)
    dm.append("a", 1, b"lonely")
    assert durable == []
    sim.run(until=0.05)
    assert durable == [("a", 1)]
    assert dm.watermark("a") == 1


def test_one_fsync_covers_many_records_and_origins():
    sim, fs, dm, durable = build_dm(batch=100, interval=0.02)
    dm.append("a", 1, b"x")
    dm.append("b", 7, b"y")
    dm.append("a", 2, b"z")
    sim.run(until=0.05)
    assert dm.group_commits == 1
    assert dm.watermarks() == {"a": 2, "b": 7}
    assert set(durable) == {("a", 2), ("b", 7)}


def test_synthetic_payloads_are_loggable():
    sim, fs, dm, durable = build_dm(batch=1)
    dm.append("a", 1, SyntheticPayload(8192))
    assert dm.watermark("a") == 1


# ---------------------------------------------------------------------------
# Fault handling: clean write errors retry, failed fsyncs poison.
# ---------------------------------------------------------------------------


def test_write_fault_retries_on_the_timer():
    sim, fs, dm, durable = build_dm(batch=1, interval=0.02)
    fs.injector.arm_once("enospc")
    dm.append("a", 1, b"delayed")  # write fails cleanly; stays queued
    assert dm.watermark("a") == 0
    assert dm.write_faults == 1
    sim.run(until=0.1)  # the timer drains and commits
    assert dm.watermark("a") == 1


def test_fsyncgate_poisons_and_rewrites():
    """A failed fsync must not be retried on the same file — the kernel
    dropped the pages.  The manager seals the segment and rewrites the
    records to a fresh one; the watermark moves only on the new fsync."""
    sim, fs, dm, durable = build_dm(batch=2, interval=0.02)
    fs.injector.arm_once("fsync_fail")
    dm.append("a", 1, b"nearly-lost")
    dm.append("a", 2, b"nearly-lost-too")
    # The batch commit hit the failed fsync: nothing is claimed.
    assert dm.watermark("a") == 0
    assert dm.fsync_failures == 1
    assert dm.poisoned_records == 2
    assert dm.segments_rotated == 1
    sim.run(until=0.1)  # rewrite lands in the fresh segment and commits
    assert dm.watermark("a") == 2
    assert dm.rewritten_records == 2
    # The honest proof: crash the disk and recover — both records exist.
    dm.close(sync=False)
    fs.crash()
    sim2 = Simulator()
    recovered = DurabilityManager(sim2, dm_config(), fs=fs)
    assert recovered.watermark("a") == 2


def test_retrying_fsync_on_same_file_would_have_lost_data():
    """The negative control for the poison policy: an fsync retry on the
    same file 'succeeds' while the poisoned bytes are gone from the
    durable image."""
    fs = MemoryFileSystem(seed=1)
    fh = fs.open("naive.log", "ab")
    fh.write(b"record-bytes")
    fs.injector.arm_once("fsync_fail")
    with pytest.raises(Exception):
        fs.fsync(fh)
    fs.fsync(fh)  # the naive retry: returns success
    assert b"record-bytes" not in fs.durable_bytes("naive.log")


# ---------------------------------------------------------------------------
# Recovery.
# ---------------------------------------------------------------------------


def test_recovery_rebuilds_watermarks_from_segments():
    sim, fs, dm, durable = build_dm(batch=1)
    for seq in range(1, 6):
        dm.append("a", seq, b"r%d" % seq)
    dm.append("b", 3, b"other-stream")
    dm.close(sync=False)
    fs.crash()  # everything was fsynced (batch=1): all survives
    recovered = DurabilityManager(Simulator(), dm_config(), fs=fs)
    assert recovered.watermark("a") == 5
    assert recovered.watermark("b") == 0  # 3 alone is not contiguous from 1
    assert recovered.recovered_records == 6


def test_recovery_ignores_unsynced_tail():
    sim, fs, dm, durable = build_dm(batch=2, interval=10.0)
    dm.append("a", 1, b"synced")
    dm.append("a", 2, b"synced")  # batch of 2 commits here
    dm.append("a", 3, b"volatile")  # never fsynced
    dm.close(sync=False)
    fs.crash()
    recovered = DurabilityManager(Simulator(), dm_config(), fs=fs)
    assert recovered.watermark("a") == 2


def test_contiguity_gap_prevents_overclaim():
    """A salvage hole in the sequence space must cap the watermark at the
    last contiguous record — max-seq would lie about the gap."""
    sim, fs, dm, durable = build_dm(batch=1)
    for seq in (1, 2, 4, 5):  # 3 is missing
        dm.append("a", seq, b"s%d" % seq)
    dm.close()
    recovered = DurabilityManager(Simulator(), dm_config(), fs=fs)
    assert recovered.watermark("a") == 2


# ---------------------------------------------------------------------------
# Segment rotation and checkpoint compaction.
# ---------------------------------------------------------------------------


def test_size_rotation_and_checkpoint_compaction():
    sim, fs, dm, durable = build_dm(batch=1, segment_bytes=256)
    for seq in range(1, 30):
        dm.append("a", seq, b"p" * 32)
    assert dm.segments_rotated > 0
    segments_before = len(fs.listdir("wal/wal-"))
    assert segments_before > 1
    removed = dm.checkpoint()
    assert removed > 0
    assert dm.segments_compacted == removed
    assert len(fs.listdir("wal/wal-")) == segments_before - removed
    # The manifest carries the compacted-away watermark: recovery still
    # reports the full contiguous prefix.
    dm.close()
    recovered = DurabilityManager(Simulator(), dm_config(), fs=fs)
    assert recovered.watermark("a") == 29


def test_checkpoint_never_claims_beyond_fsync():
    sim, fs, dm, durable = build_dm(batch=100, interval=10.0)
    dm.append("a", 1, b"unsynced")
    dm.checkpoint(cover={"a": 99})  # cover is clamped to the watermark
    dm.close(sync=False)
    fs.crash()
    recovered = DurabilityManager(Simulator(), dm_config(), fs=fs)
    assert recovered.watermark("a") == 0


def test_append_after_close_raises():
    sim, fs, dm, durable = build_dm()
    dm.close()
    with pytest.raises(StabilizerError):
        dm.append("a", 1, b"late")


# ---------------------------------------------------------------------------
# A segment sized without reading it; a commit's one write refused or torn.
# ---------------------------------------------------------------------------


def test_segment_size_is_counted_and_equals_the_file():
    """Rotation asks the log for its size instead of reading the segment
    back: the count must be the file's length after a healed torn write
    and on both sides of a rotation."""
    sim, fs, dm, durable = build_dm(batch=1, interval=0.02, segment_bytes=256)

    def on_disk():
        return len(fs.read_bytes(dm._current_name))

    dm.append("a", 1, b"p" * 32)
    assert dm._current.size_bytes() == on_disk() > 0
    fs.injector.arm_once("torn_write")
    dm.append("a", 2, b"q" * 32)  # torn, healed by truncation, still staged
    assert dm._current.healed_torn_writes == 1
    assert dm._current.size_bytes() == on_disk()
    sim.run(until=0.1)  # the timer's retry writes and commits it
    assert dm.watermark("a") == 2
    seq = 2
    while dm.segments_rotated == 0:
        sealed, before = dm._current_name, dm._current.size_bytes()
        assert before == on_disk() < 256
        seq += 1
        dm.append("a", seq, b"r" * 32)
    # The commit that crossed the threshold rotated, and only that one.
    assert len(fs.read_bytes(sealed)) >= 256
    assert dm._current_name != sealed
    assert dm._current.size_bytes() == on_disk() == 0
    assert dm.watermark("a") == seq


def test_a_refused_commit_write_keeps_every_staged_record():
    """Appends stage records without touching the file; the commit writes
    them in one write.  A refused write is one injector consultation for
    the whole batch: nothing reaches the file, every record stays staged,
    the fault is counted once and the retry is armed; the next commit
    writes those records ahead of later ones."""
    sim, fs, dm, durable = build_dm(batch=3, interval=0.02)
    dm.append("a", 1, b"first")
    dm.append("b", 4, b"second")
    assert fs.read_bytes(dm._current_name) == b""  # staged, not written
    fs.injector.arm_once("eio_write")
    dm.append("a", 2, b"third")  # the size trigger: one write, refused
    assert fs.injector.injected == {"eio_write": 1}
    assert dm.write_faults == 1 and dm.group_commits == 0
    assert dm.pending() == 3 and durable == []
    assert fs.read_bytes(dm._current_name) == b""
    assert sim.pending_count() == 1  # the retry
    dm.append("a", 3, b"behind")  # the size trigger again, unarmed now
    assert dm.pending() == 0 and dm.group_commits == 1
    assert durable == [("a", 3), ("b", 4)]
    # The whole batch is one frame, its records in staged order.
    (batch,) = dm._current.records()
    written = list(dm._decode(batch.payload))
    assert written == [("a", 1), ("b", 4), ("a", 2), ("a", 3)]


def test_a_torn_commit_write_is_healed_to_the_last_whole_frame():
    sim, fs, dm, durable = build_dm(batch=2, interval=0.02)
    dm.append("a", 1, b"committed")
    dm.append("a", 2, b"committed")
    before = fs.read_bytes(dm._current_name)
    fs.injector.arm_once("torn_write")
    dm.append("a", 3, b"torn-" * 8)
    dm.append("a", 4, b"torn-" * 8)
    assert dm._current.healed_torn_writes == 1 and dm.write_faults == 1
    assert fs.read_bytes(dm._current_name) == before
    assert dm._current.size_bytes() == len(before)
    assert dm.pending() == 2 and dm.watermark("a") == 2
    sim.run(until=0.1)  # the timer's retry writes the whole batch
    assert dm.watermark("a") == 4 and durable == [("a", 2), ("a", 4)]


@pytest.mark.parametrize("fault", ["fsync_fail", "enospc"])
def test_close_cancels_the_retry_its_final_commit_armed(fault):
    sim, fs, dm, durable = build_dm(batch=100)
    dm.append("a", 1, b"never-durable")
    fs.injector.arm_once(fault)
    dm.close()
    assert fs.injector.injected == {fault: 1}
    assert sim.pending_count() == 0
    sim.run()
    assert durable == [] and dm.watermark("a") == 0


# ---------------------------------------------------------------------------
# Crash-point sweep: every byte of one commit's write.
# ---------------------------------------------------------------------------


def test_crash_point_sweep_over_one_commit_write():
    """Enumerate a crash after every byte of the tail one commit's write
    leaves in the live segment before its fsync (covering frame-header,
    payload and frame boundaries).  From every prefix, recovery must
    reach a legal state: watermark between the fsynced floor and the
    optimistic ceiling, never a crash, never a claim for a record whose
    bytes did not survive."""
    sim, fs, dm, durable = build_dm(batch=100, interval=10.0)
    for seq in range(1, 4):
        dm.append("a", seq, b"committed-%d" % seq)
    dm.flush()  # group commit: seqs 1-3 are fsynced
    floor = dm.watermark("a")
    assert floor == 3
    for seq in range(4, 7):
        dm.append("a", seq, b"in-flight-%d" % seq)
    segment = dm._current_name
    assert fs.unsynced_tail_len(segment) == 0  # staged records are not in the file
    dm._current.append(b"".join(dm._staged))  # the commit's write, no fsync
    tail = fs.unsynced_tail_len(segment)
    assert tail > 0
    states = set()
    for keep in range(tail + 1):
        probe = fs.clone(seed=keep)
        probe.crash_file(segment, keep_tail=keep)
        recovered = DurabilityManager(Simulator(), dm_config(), fs=probe)
        mark = recovered.watermark("a")
        assert floor <= mark <= 6
        # Honesty: every claimed record's bytes must be recoverable.
        assert recovered.recovered_records >= mark
        states.add(mark)
    # The one write is one frame: a torn batch is never claimed, so a
    # crash keeps none of its records or all of them.
    assert states == {3, 6}


# ---------------------------------------------------------------------------
# End-to-end: the persisted column through a live cluster.
# ---------------------------------------------------------------------------


def build_cluster_net(durability=True, batch=4, interval=0.01):
    topo = Topology()
    topo.add_node("a", "east")
    topo.add_node("b", "west")
    topo.set_default(NetemSpec(latency_ms=5, rate_mbit=100))
    sim = Simulator()
    net = topo.build(sim)
    config = StabilizerConfig(
        NODES,
        GROUPS,
        "a",
        predicates={
            "all": "MIN($ALLWNODES - $MYWNODE)",
            "durable": "MIN($ALLWNODES.persisted)",
        },
        control_interval_s=0.001,
        durability=durability,
        durability_group_commit_batch=batch,
        durability_group_commit_interval_s=interval,
    )
    cluster = StabilizerCluster(net, config)
    return sim, net, cluster


def test_persisted_is_gated_on_fsync_at_the_origin():
    sim, net, cluster = build_cluster_net(batch=100, interval=0.5)
    a = cluster["a"]
    persisted = a.type_id("persisted")
    seq = a.send(b"needs-disk")
    # The completeness rule covers received &c. — but not persisted.
    assert a.tables["a"].get(0, a.type_id("received")) == seq
    assert a.tables["a"].get(0, persisted) == 0
    sim.run(until=1.0)  # the group-commit interval elapses
    assert a.tables["a"].get(0, persisted) == seq
    cluster.close()


def test_persisted_claims_propagate_and_converge():
    sim, net, cluster = build_cluster_net()
    a, b = cluster["a"], cluster["b"]
    seq = a.send(b"replicate-then-fsync-everywhere")
    event = a.waitfor(seq, "durable")
    sim.run(until=2.0)
    assert event.triggered and event.ok
    persisted = a.type_id("persisted")
    # Every node's persisted cell for stream "a" reached seq at a and b.
    for node in (a, b):
        for row in range(2):
            assert node.tables["a"].get(row, persisted) == seq
    # And the claims are backed by actual WAL fsyncs on both disks.
    assert a.durability.watermark("a") == seq
    assert b.durability.watermark("a") == seq
    cluster.close()


def test_a_commit_grants_every_origin_it_covers_in_one_flush():
    """One group commit covering two streams is one ``on_durable`` call:
    the ACK-table engine grants ``persisted`` for both, then flushes its
    report batch once, not once per origin."""
    sim, net, cluster = build_cluster_net(batch=100, interval=0.5)
    a, b = cluster["a"], cluster["b"]
    flushes = []
    advance = b.strategy.advance_candidates

    def counted():
        flushes.append(sim.now)
        advance()

    b.strategy.advance_candidates = counted
    seq_a, seq_b = a.send(b"from-a"), b.send(b"from-b")
    sim.run(until=0.1)  # a's message has arrived; nothing is committed
    persisted = b.type_id("persisted")
    assert b.durability.pending() == 2 and not flushes
    assert b.tables["a"].get(1, persisted) == b.tables["b"].get(1, persisted) == 0
    b.durability.flush()
    assert len(flushes) == 1
    assert b.tables["a"].get(1, persisted) == seq_a
    assert b.tables["b"].get(1, persisted) == seq_b
    cluster.close()


def test_modelled_mode_keeps_old_semantics():
    sim, net, cluster = build_cluster_net(durability=False)
    a = cluster["a"]
    seq = a.send(b"no-disk-anywhere")
    assert a.tables["a"].get(0, a.type_id("persisted")) == seq
    assert a.durability is None
    cluster.close()


def test_restore_rejects_dishonest_persisted_claim():
    sim, net, cluster = build_cluster_net()
    a = cluster["a"]
    seq = a.send(b"will-be-overclaimed")
    sim.run(until=1.0)
    snap = snapshot_state(a)
    # Forge a persisted claim beyond anything the WAL fsynced.
    snap["tables"]["a"][0][a.type_id("persisted")] = seq + 100
    fs = cluster.filesystems["a"]
    a.crash()
    net.crash_node("a")
    net.recover_node("a")
    fresh = type(a)(net, a.config, fs=fs)
    with pytest.raises(StabilizerError, match="dishonest"):
        restore_state(fresh, snap)
    fresh.close()
    cluster.nodes["a"] = fresh  # so cluster.close() has a live handle
    cluster.close()


def test_restart_recovers_watermarks_and_rebroadcasts():
    sim, net, cluster = build_cluster_net(batch=1)
    a, b = cluster["a"], cluster["b"]
    seq = a.send(b"durable-before-crash")
    sim.run(until=1.0)
    assert a.durability.watermark("a") == seq
    snap = snapshot_state(a)
    a.crash()
    cluster.filesystems["a"].crash()
    net.crash_node("a")
    sim.run(until=1.5)
    net.recover_node("a")
    restarted = cluster.restart_node("a", snap)
    sim.run(until=3.0)
    # The recovered WAL backs the restored claim.
    assert restarted.durability.watermark("a") >= seq
    persisted = restarted.type_id("persisted")
    assert restarted.tables["a"].get(0, persisted) >= seq
    cluster.close()
