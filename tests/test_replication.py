"""Replication tier units: protocol, chaos links, replicas, sessions."""

import dataclasses
import json

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.recovery import ReplicationSession, RunSpec, read_journal
from repro.recovery.journal import JournalCorrupt, MergeJournal, encode_record
from repro.recovery.replication.protocol import (
    FrameCorrupt,
    FrameDecoder,
    checkpoint_blob,
    checkpoint_frame,
    decode_frame_body,
    encode_frame,
    encode_record_line,
    eof_frame,
    heartbeat_frame,
    hello_frame,
    record_frame,
)
from repro.recovery.replication.replica import ReplicaState
from repro.recovery.replication.transport import ChaosLink
from repro.recovery.snapshot import dump_checkpoint
from repro.sim.metrics import summarize


def _spec(**overrides):
    defaults = dict(
        app="moses", mode="ksm", seed=3, pages_per_vm=30, n_vms=3,
        intervals=4, checkpoint_every=2, plan=FaultPlan(seed=3),
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


# Protocol ------------------------------------------------------------------------


class TestProtocol:
    def test_roundtrip_every_kind(self):
        frames = [
            hello_frame("{}", 0, 0),
            record_frame('{"seq": 0}'),
            checkpoint_frame(2, 17, b"blobbytes"),
            heartbeat_frame(17, 1, 123.5),
            eof_frame(17),
        ]
        decoder = FrameDecoder()
        wire = b"".join(encode_frame(f) for f in frames)
        decoded = decoder.feed(wire)
        assert [f["kind"] for f in decoded] == [
            "hello", "record", "checkpoint", "heartbeat", "eof"
        ]
        assert checkpoint_blob(decoded[2]) == b"blobbytes"
        # Nothing was left buffered: the next frame decodes on its own.
        assert decoder.feed(encode_frame(eof_frame(18)))[0]["lsn"] == 18

    def test_incremental_feed_one_byte_at_a_time(self):
        wire = encode_frame(heartbeat_frame(5, 2, 1.0))
        decoder = FrameDecoder()
        out = []
        for i in range(len(wire)):
            out.extend(decoder.feed(wire[i:i + 1]))
        assert len(out) == 1 and out[0]["lsn"] == 5

    def test_corrupt_body_raises(self):
        wire = bytearray(encode_frame(eof_frame(9)))
        wire[10] ^= 0xFF  # damage the JSON body
        with pytest.raises(FrameCorrupt):
            FrameDecoder().feed(bytes(wire))

    def test_tampered_field_fails_crc(self):
        frame = eof_frame(9)
        frame["crc"] = "0" * 16
        body = json.dumps(frame, sort_keys=True).encode()
        with pytest.raises(FrameCorrupt):
            decode_frame_body(body)

    def test_insane_length_prefix_raises(self):
        with pytest.raises(FrameCorrupt):
            FrameDecoder().feed(b"\xff\xff\xff\xff")

    def test_record_line_roundtrip_is_byte_identical(self):
        line = encode_record({"seq": 4, "op": "merge", "args": {"x": 1},
                              "interval": 0})
        record = json.loads(line.decode())
        assert (encode_record_line(record) + "\n").encode() == line


# Chaos transport ------------------------------------------------------------------


def _link(plan):
    injector = FaultInjector(plan)
    return ChaosLink(injector, "replica-0"), injector.net_stats


class TestChaosLink:
    def test_quiet_link_delivers_in_order(self):
        link, stats = _link(FaultPlan.quiet())
        frames = [eof_frame(i) for i in range(10)]
        out = [d for f in frames for d in link.send(f)]
        assert [f["lsn"] for f in out] == list(range(10))
        assert stats.frames_delivered == 10

    def test_same_seed_same_fates(self):
        plan = FaultPlan.lossy_network(0.3, seed=11)
        outs = []
        for _ in range(2):
            link, _stats = _link(plan)
            delivered = [
                d["lsn"] for i in range(200)
                for d in link.send(eof_frame(i))
            ]
            outs.append(delivered)
        assert outs[0] == outs[1]

    def test_drop_duplicate_reorder_counters(self):
        plan = FaultPlan.lossy_network(0.4, seed=7)
        link, stats = _link(plan)
        for i in range(500):
            link.send(eof_frame(i))
        link.drain()
        assert stats.frames_dropped > 0
        assert stats.frames_duplicated > 0
        assert stats.frames_reordered > 0
        assert (stats.frames_delivered + stats.frames_dropped
                <= stats.frames_sent + stats.frames_duplicated)

    def test_reorder_is_adjacent_swap(self):
        plan = FaultPlan(seed=1, net_reorder_rate=0.5)
        link, _stats = _link(plan)
        seen = [d["lsn"] for i in range(100) for d in link.send(eof_frame(i))]
        seen += [d["lsn"] for d in link.drain()]
        assert sorted(seen) == list(range(100))  # nothing lost
        assert seen != list(range(100))  # something actually swapped
        for pos, lsn in enumerate(seen):  # displacement bounded by 1 slot
            assert abs(lsn - pos) <= 1

    def test_lag_is_fixed_depth(self):
        plan = FaultPlan(seed=1, net_lag_frames=3)
        link, _stats = _link(plan)
        assert link.send(eof_frame(0)) == []
        assert link.send(eof_frame(1)) == []
        assert link.send(eof_frame(2)) == []
        assert [d["lsn"] for d in link.send(eof_frame(3))] == [0]
        assert [d["lsn"] for d in link.drain()] == [1, 2, 3]

    def test_partition_swallows_a_window_then_heals(self):
        plan = FaultPlan(seed=2, partition_prob=0.99, partition_frames=4)
        link, stats = _link(plan)
        assert link.send(eof_frame(0)) == []  # partition starts
        assert link.partitioned
        for i in range(1, 4):
            assert link.send(eof_frame(i)) == []
        assert not link.partitioned
        assert stats.partitions_started == 1
        assert stats.partitions_healed == 1
        assert stats.partition_frames_dropped == 4

    def test_partitioned_drain_loses_queued_frames(self):
        plan = FaultPlan(seed=2, net_lag_frames=5, partition_prob=0.0)
        link, _stats = _link(plan)
        link.send(eof_frame(0))
        link._partition_left = 3  # mid-partition shutdown
        assert link.drain() == []


# Replica state --------------------------------------------------------------------


def _record_line(seq, op="merge", **args):
    line = encode_record(
        {"seq": seq, "interval": 0, "op": op, "args": args}
    )
    return line.decode().rstrip("\n")


class TestReplicaState:
    def test_applies_contiguous_records(self, tmp_path):
        replica = ReplicaState("replica-0", tmp_path / "r0")
        for seq in range(5):
            ack = replica.apply(record_frame(_record_line(seq)))
            assert ack["lsn"] == seq + 1
        replica.close()
        records, dropped = read_journal(tmp_path / "r0" / "journal.jsonl")
        assert [r["seq"] for r in records] == list(range(5))
        assert dropped == 0

    def test_duplicate_dropped_gap_dropped(self, tmp_path):
        replica = ReplicaState("replica-0", tmp_path / "r0")
        replica.apply(record_frame(_record_line(0)))
        replica.apply(record_frame(_record_line(0)))  # duplicate
        replica.apply(record_frame(_record_line(3)))  # gap
        assert replica.duplicates_dropped == 1
        assert replica.gaps_dropped == 1
        assert replica.durable_lsn == 1
        replica.close()

    def test_corrupt_record_dropped_not_installed(self, tmp_path):
        replica = ReplicaState("replica-0", tmp_path / "r0")
        line = _record_line(0)
        tampered = line.replace('"merge"', '"break"')
        replica.apply(record_frame(tampered))
        assert replica.corrupt_dropped == 1
        assert replica.durable_lsn == 0
        replica.close()
        assert read_journal(tmp_path / "r0" / "journal.jsonl") == ([], 0)

    def test_checkpoint_resync_snaps_cursor_forward(self, tmp_path):
        replica = ReplicaState("replica-0", tmp_path / "r0")
        replica.apply(record_frame(_record_line(0)))
        blob_path = tmp_path / "ckpt.pfck"
        dump_checkpoint(blob_path, {"interval": 2}, step=2, journal_seq=9)
        ack = replica.apply(
            checkpoint_frame(2, 9, blob_path.read_bytes())
        )
        assert replica.resyncs == 1
        assert replica.durable_lsn == 9 == ack["lsn"]
        # Streaming continues contiguously from the checkpoint.
        replica.apply(record_frame(_record_line(9)))
        assert replica.durable_lsn == 10
        replica.close()

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        replica = ReplicaState("replica-0", tmp_path / "r0")
        blob_path = tmp_path / "ckpt.pfck"
        dump_checkpoint(blob_path, {"interval": 2}, step=2, journal_seq=9)
        blob = bytearray(blob_path.read_bytes())
        blob[-1] ^= 0xFF
        replica.apply(checkpoint_frame(2, 9, bytes(blob)))
        assert replica.checkpoints_rejected == 1
        assert replica.checkpoints_installed == 0
        assert replica.durable_lsn == 0
        replica.close()

    def test_eof_marks_and_fsyncs(self, tmp_path):
        replica = ReplicaState("replica-0", tmp_path / "r0")
        replica.apply(record_frame(_record_line(0)))
        replica.apply(eof_frame(1))
        assert replica.eof_seen
        replica.close()


# read_journal hardening (satellite: torn tail vs mid-stream corruption) -----------


class TestJournalTornTailVsCorruption:
    def _journal_with(self, tmp_path, n=3):
        path = tmp_path / "journal.jsonl"
        journal = MergeJournal(path, flush_every=1).open()
        for _ in range(n):
            journal._emit("commit", {"i": journal.seq, "footprint": 1})
        journal.close()
        return path

    def test_torn_final_record_is_dropped(self, tmp_path):
        path = self._journal_with(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # cut mid-record: no trailing newline
        records, dropped = read_journal(path)
        assert len(records) == 2
        assert dropped == 1

    def test_newline_complete_bad_final_record_raises(self, tmp_path):
        path = self._journal_with(tmp_path)
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        last = lines[-1]
        damaged = last.replace(b'"op"', b'"oq"', 1)  # crc now wrong
        path.write_bytes(b"".join(lines[:-1]) + damaged)
        assert damaged.endswith(b"\n")
        with pytest.raises(JournalCorrupt):
            read_journal(path)

    def test_mid_stream_corruption_still_raises(self, tmp_path):
        path = self._journal_with(tmp_path)
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"op"', b'"oq"', 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorrupt):
            read_journal(path)

    def test_torn_record_with_valid_crc_is_kept(self, tmp_path):
        # A crash exactly between the record bytes and its newline: the
        # record is complete and its crc checks out — trustworthy.
        path = self._journal_with(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])  # strip only the final newline
        records, dropped = read_journal(path)
        assert len(records) == 3
        assert dropped == 0


# Metrics helper -------------------------------------------------------------------


class TestSummarize:
    def test_empty_is_zeroes(self):
        assert summarize([]) == {
            "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "p95": 0.0
        }

    def test_stats(self):
        out = summarize(range(1, 101))
        assert out["count"] == 100
        assert out["min"] == 1 and out["max"] == 100
        assert out["mean"] == pytest.approx(50.5)
        assert out["p95"] == 96


# In-process sessions --------------------------------------------------------------


class TestReplicationSession:
    def test_clean_session_replicas_byte_identical(self, tmp_path):
        session = ReplicationSession(_spec(), tmp_path, n_replicas=2)
        out = session.run()
        assert out["failovers"] == 0
        primary = (tmp_path / "primary" / "journal.jsonl").read_bytes()
        for i in range(2):
            mirror = tmp_path / f"replica-{i}" / "journal.jsonl"
            assert mirror.read_bytes() == primary
        rep = out["replication"]
        assert rep["records_streamed"] > 0
        assert rep["checkpoints_streamed"] > 0
        assert out["metrics"]["replication/failovers"] == 0
        assert out["metrics"]["replication/records_streamed"] == \
            rep["records_streamed"]

    def test_killed_primary_fails_over_equivalently(self, tmp_path):
        session = ReplicationSession(_spec(), tmp_path, n_replicas=2)
        out = session.run(kill_at_lsns=[15], check_equivalence=True)
        assert out["failovers"] == 1
        assert out["promoted"] == ["replica-0"]
        assert out["final_workdir"].endswith("replica-0")
        assert out["equivalence"]["equivalent"]
        assert out["result"]["validation"]["auditor_clean"]
        assert out["result"]["validation"]["zero_false_merges"]
        lat = out["replication"]["failover_latency_s"]
        assert lat["count"] == 1 and lat["max"] > 0.0

    def test_degraded_failover_with_no_replicas(self, tmp_path):
        session = ReplicationSession(_spec(), tmp_path, n_replicas=0)
        out = session.run(kill_at_lsns=[15], check_equivalence=True)
        assert out["promoted"] == ["<self>"]
        assert out["equivalence"]["equivalent"]

    def test_last_attempt_crash_promotes_nothing(self, tmp_path):
        session = ReplicationSession(_spec(), tmp_path, n_replicas=1)
        with pytest.raises(RuntimeError):
            session.run(kill_at_lsns=[15], max_attempts=1)
        assert session.group.monitor.failovers == 0
        assert [r.replica_id for r in session.replicas] == ["replica-0"]
        assert session.primary_dir == tmp_path / "primary"

    def test_lossy_links_do_not_change_fingerprint(self, tmp_path):
        quiet = ReplicationSession(_spec(), tmp_path / "quiet", n_replicas=1)
        lossy_plan = FaultPlan.lossy_network(
            0.15, seed=3, partition_prob=0.02, partition_frames=6
        )
        lossy = ReplicationSession(
            _spec(plan=lossy_plan), tmp_path / "lossy", n_replicas=1
        )
        a = quiet.run()
        b = lossy.run()
        assert b["replication"]["net"]["frames_dropped"] > 0 or \
            b["replication"]["net"]["partition_frames_dropped"] > 0
        assert a["result"]["fingerprint"] == b["result"]["fingerprint"]

    def test_election_prefers_highest_lsn_then_lowest_id(self, tmp_path):
        session = ReplicationSession(_spec(), tmp_path, n_replicas=3)
        r0, r1, r2 = session.replicas
        r0.next_expected = 5
        r1.next_expected = 9
        r2.next_expected = 9
        assert session.elect() is r1
        r2.next_expected = 12
        assert session.elect() is r2


def test_run_spec_roundtrips_net_fault_fields():
    plan = FaultPlan.lossy_network(0.1, seed=9, lag=2,
                                   partition_prob=0.05, partition_frames=8)
    spec = _spec(plan=plan)
    restored = RunSpec.from_json(spec.to_json())
    assert restored.plan == plan


def test_net_fault_rate_validation():
    with pytest.raises(ValueError):
        FaultPlan(net_drop_rate=0.7, net_duplicate_rate=0.4)
    with pytest.raises(ValueError):
        FaultPlan(net_lag_frames=-1)
    quiet = FaultPlan.quiet()
    assert quiet.net_fault_rate == 0.0
    assert dataclasses.replace(quiet, net_drop_rate=0.5).net_fault_rate == 0.5
