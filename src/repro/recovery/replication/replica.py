"""Replica state: an independently durable copy of journal + checkpoints.

Each replica owns a workdir shaped exactly like a primary run directory
— ``spec.json``, ``journal.jsonl``, ``checkpoints/`` — so promotion is
nothing special: :meth:`~repro.recovery.runner.RecoverableRun.resume`
pointed at the replica's workdir *is* failover.

The invariant everything hangs on is **journal contiguity**: the
replica's journal holds the records from its last installed checkpoint's
``journal_seq`` through ``next_expected - 1`` with no gaps.  The apply
rules enforce it:

* a record whose seq < ``next_expected`` is a duplicate — dropped;
* a record whose seq > ``next_expected`` arrived over a gap (dropped or
  reordered predecessors) — dropped too; the link-level reorder queue
  usually heals one-slot swaps before they get here, and anything worse
  is repaired by the next checkpoint;
* a checkpoint whose ``journal_seq`` > ``next_expected`` *resynchronises*
  the replica: the checkpoint supersedes every record before its seq, so
  the cursor snaps forward and streaming continues from there.  This is
  how a partitioned replica rejoins.

Everything installed is re-validated locally — record lines against the
journal's own per-record crc, checkpoint blobs through
:func:`~repro.recovery.snapshot.parse_checkpoint` — because a chaos
transport (or a real one) is not to be trusted.
"""

import json
import os
from pathlib import Path

from repro.common.io import atomic_write_text
from repro.recovery.journal import _record_crc
from repro.recovery.snapshot import CheckpointCorrupt, CheckpointStore, \
    parse_checkpoint
from repro.recovery.replication.protocol import ack_frame, checkpoint_blob


class ReplicaState:
    """One replica's durable journal + checkpoint store + cursors."""

    def __init__(self, replica_id, workdir, keep_checkpoints=3):
        self.replica_id = str(replica_id)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.store = CheckpointStore(
            self.workdir / "checkpoints", keep=keep_checkpoints
        )
        self.journal_path = self.workdir / "journal.jsonl"
        self._fd = None
        self.next_expected = 0  # LSN cursor: first seq not yet durable
        self.checkpoint_seq = 0  # journal_seq of newest installed ckpt
        self.checkpoint_step = None
        self.last_heartbeat_mono = None
        self.records_applied = 0
        self.duplicates_dropped = 0
        self.gaps_dropped = 0
        self.corrupt_dropped = 0
        self.checkpoints_installed = 0
        self.checkpoints_rejected = 0
        self.resyncs = 0
        self.eof_seen = False

    # Durability -----------------------------------------------------------------

    def _ensure_open(self):
        if self._fd is None:
            self._fd = os.open(
                str(self.journal_path),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
            )
        return self._fd

    def _append_line(self, line):
        fd = self._ensure_open()
        os.write(fd, line.encode("utf-8") + b"\n")

    def _fsync(self):
        if self._fd is not None:
            os.fsync(self._fd)

    def close(self):
        if self._fd is not None:
            os.fsync(self._fd)
            os.close(self._fd)
            self._fd = None

    @property
    def durable_lsn(self):
        """The election criterion: how far this replica's log reaches."""
        return self.next_expected

    # Frame application -----------------------------------------------------------

    def apply(self, frame):
        """Install one delivered frame; returns an ack dict or None."""
        kind = frame["kind"]
        if kind == "hello":
            return self._apply_hello(frame)
        if kind == "record":
            return self._apply_record(frame)
        if kind == "checkpoint":
            return self._apply_checkpoint(frame)
        if kind == "heartbeat":
            self.last_heartbeat_mono = frame["mono"]
            return self._ack()
        if kind == "eof":
            self.eof_seen = True
            self._fsync()
            return self._ack()
        return None

    def _ack(self):
        return ack_frame(self.replica_id, self.next_expected)

    def _apply_hello(self, frame):
        atomic_write_text(self.workdir / "spec.json", frame["spec"])
        # A restarted primary (attempt > 0) re-streams from its journal
        # start; the dedupe rule absorbs the overlap, so the cursor is
        # only ever *raised* here.
        self.next_expected = max(self.next_expected, frame["start_lsn"])
        return self._ack()

    def _apply_record(self, frame):
        line = frame["line"]
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("not an object")
            if record.get("crc") != _record_crc(record):
                raise ValueError("crc mismatch")
            seq = int(record["seq"])
        except (ValueError, KeyError, TypeError):
            self.corrupt_dropped += 1
            return self._ack()
        if seq < self.next_expected:
            self.duplicates_dropped += 1
            return self._ack()
        if seq > self.next_expected:
            self.gaps_dropped += 1
            return self._ack()
        self._append_line(line)
        self.next_expected = seq + 1
        self.records_applied += 1
        # The primary only streams post-fsync batches, and interval
        # commits flush eagerly, so per-record fsync here keeps replica
        # durability within one batch of the primary's without another
        # batching layer to tune.
        self._fsync()
        return self._ack()

    def _apply_checkpoint(self, frame):
        blob = checkpoint_blob(frame)
        try:
            _state, header = parse_checkpoint(
                blob, label=f"replica {self.replica_id} frame"
            )
        except CheckpointCorrupt:
            self.checkpoints_rejected += 1
            return self._ack()
        step = header["step"]
        path = self.store.path_for(step)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        self.store.prune()
        self.checkpoints_installed += 1
        self.checkpoint_step = step
        self.checkpoint_seq = header["journal_seq"]
        if header["journal_seq"] > self.next_expected:
            # The checkpoint supersedes the records this replica never
            # received: snap the cursor forward (partition rejoin).
            self.next_expected = header["journal_seq"]
            self.resyncs += 1
        return self._ack()

    # Introspection ----------------------------------------------------------------

    def snapshot(self):
        return {
            "replica": self.replica_id,
            "durable_lsn": self.durable_lsn,
            "checkpoint_step": self.checkpoint_step,
            "checkpoint_seq": self.checkpoint_seq,
            "records_applied": self.records_applied,
            "duplicates_dropped": self.duplicates_dropped,
            "gaps_dropped": self.gaps_dropped,
            "corrupt_dropped": self.corrupt_dropped,
            "checkpoints_installed": self.checkpoints_installed,
            "checkpoints_rejected": self.checkpoints_rejected,
            "resyncs": self.resyncs,
            "eof_seen": self.eof_seen,
        }
