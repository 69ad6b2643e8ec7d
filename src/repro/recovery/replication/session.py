"""In-process primary-backup replication with deterministic failover.

:class:`JournalStreamer` taps a :class:`~repro.recovery.runner.
RecoverableRun` at its three durability points — the journal's
post-fsync batch sink, the checkpoint store's ``save`` and the
per-interval ``interval_hook`` — and turns each into protocol frames.
The ordering guarantee is **fsync-then-stream**: a record reaches the
wire only after it is durable at the primary, so no replica can ever
hold a record the primary might lose, and the set of records a crash
destroys is identical at every node (modulo transport loss, which only
shrinks it further).

:class:`ReplicationSession` runs the whole tier in one process — the
primary run and a :class:`~repro.recovery.replication.group.
ReplicaGroup` of N replicas behind chaos links — which makes chaos
campaigns deterministic and fast.  Failover is the heart of it:

1. the primary dies (an injected :class:`ProcessCrash` at a target LSN,
   a checkpoint-publish boundary, or the plan's ``crash_after_ops``);
2. the group elects the replica with the highest ``durable_lsn`` (ties
   break to the lowest replica id) — deterministic, no quorum theatre
   needed for a primary-backup pair;
3. the promoted replica's workdir — journal + checkpoints, maintained
   entirely from streamed frames — is handed to
   :meth:`RecoverableRun.resume`, which restores, lockstep-verifies and
   continues.  Promotion *is* resume; there is no special replica code
   path to get wrong.

With ``n_replicas=0`` every failover resumes the primary's own workdir
in place: that is the single-node crash/resume loop, and the in-process
harness the recovery tests run.  Because resume-by-re-execution is
bit-deterministic, the completed run's fingerprint equals the
uninterrupted reference run's, whether or not the node itself died.

The process-tree variant (real SIGKILL, sockets) lives in
``cluster.py``; this module is the mechanism, that one is the harness.
"""

import time
from pathlib import Path

from repro.faults.injector import ProcessCrash
from repro.recovery import runner
from repro.recovery.journal import read_journal
from repro.recovery.replication.group import ReplicaGroup
from repro.recovery.replication.protocol import (
    checkpoint_frame,
    encode_record_line,
    eof_frame,
    heartbeat_frame,
    hello_frame,
    record_frame,
)
from repro.recovery.runner import RecoverableRun
from repro.recovery.snapshot import CheckpointCorrupt, load_checkpoint


class JournalStreamer:
    """Taps one run's durability points and emits protocol frames."""

    def __init__(self, run, send, on_checkpoint=None):
        self.run = run
        self.send = send
        self.on_checkpoint = on_checkpoint
        self._saved_save = None
        self._attached = False

    # Attach / detach ---------------------------------------------------------------

    def attach(self):
        run = self.run
        streamer = self

        def sink(line_bytes):
            streamer.send(record_frame(
                line_bytes.decode("utf-8").rstrip("\n")
            ))

        run.journal.sink = sink

        store = run.store
        inner_save = store.save
        self._saved_save = store.__dict__.get("save")

        def streaming_save(step, state, journal_seq=0, meta=None):
            path = inner_save(step, state, journal_seq=journal_seq,
                              meta=meta)
            if streamer.on_checkpoint is not None:
                streamer.on_checkpoint(step, "published")
            streamer.send(checkpoint_frame(
                step, journal_seq, Path(path).read_bytes()
            ))
            if streamer.on_checkpoint is not None:
                streamer.on_checkpoint(step, "streamed")
            return path

        store.save = streaming_save

        def heartbeat(interval):
            streamer.send(heartbeat_frame(
                run.journal.seq, interval, time.monotonic()
            ))

        run.interval_hook = heartbeat
        self._attached = True
        return self

    def detach(self):
        if not self._attached:
            return
        self.run.journal.sink = None
        store = self.run.store
        if self._saved_save is None:
            store.__dict__.pop("save", None)
        else:
            store.save = self._saved_save
        self.run.interval_hook = None
        self._attached = False

    # Catch-up ----------------------------------------------------------------------

    def catch_up(self):
        """Re-stream the run's existing durable history.

        A (re)started primary's journal and newest valid checkpoint go
        out first, so a fresh or lagging replica converges before new
        records flow; replicas deduplicate by LSN, so overlap with what
        they already hold is harmless.
        """
        run = self.run
        records, _dropped = read_journal(run.journal.path)
        for record in records:
            self.send(record_frame(encode_record_line(record)))
        for step in reversed(run.store.steps()):
            path = run.store.path_for(step)
            try:
                _state, header = load_checkpoint(path)
            except (CheckpointCorrupt, OSError):
                continue
            self.send(checkpoint_frame(
                step, header["journal_seq"], path.read_bytes()
            ))
            break

    # One streamed attempt ----------------------------------------------------------

    def stream_attempt(self):
        """hello -> catch-up -> run -> eof; returns the run's result."""
        run = self.run
        self.send(hello_frame(run.spec.to_json(), run.attempt, 0))
        self.catch_up()
        self.attach()
        try:
            result = run.run()
        finally:
            self.detach()
        self.send(eof_frame(run.journal.seq))
        return result


class ReplicationSession:
    """Primary + a group of N replicas, all in one process."""

    def __init__(self, spec, workdir, n_replicas=2, registry=None):
        self.spec = spec
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.primary_dir = self.workdir / "primary"
        self.group = ReplicaGroup(spec, self.workdir, n_replicas, registry)

    @property
    def replicas(self):
        return self.group.replicas

    def elect(self):
        return self.group.elect()

    # Main loop ---------------------------------------------------------------------

    def run(self, kill_at_lsns=(), kill_at_checkpoint=None,
            max_attempts=8, check_equivalence=False):
        """Run to completion through any number of failovers.

        ``kill_at_lsns``: the primary raises :class:`ProcessCrash` as
        soon as its journal seq reaches each target (append mode only —
        re-verification of old ground never re-kills).
        ``kill_at_checkpoint``: ``(step, phase)`` with phase
        ``"published"`` (checkpoint durable locally, not yet streamed)
        or ``"streamed"`` — the kill-during-checkpoint-publish cases.
        The plan's own ``crash_after_ops``/``process_crash_prob`` work
        too, exactly as under the process-tree supervisor.
        """
        pending_lsns = sorted(int(t) for t in kill_at_lsns)
        pending_ckpt = (
            list(kill_at_checkpoint) if kill_at_checkpoint else None
        )
        run = RecoverableRun(self.spec, self.primary_dir, attempt=0)
        result = None
        crashes = 0
        for attempt in range(int(max_attempts)):
            self._arm_lsn_kills(run, pending_lsns)
            streamer = JournalStreamer(
                run, self.group.send,
                on_checkpoint=self._ckpt_kill_hook(pending_ckpt),
            )
            try:
                result = streamer.stream_attempt()
                break
            except ProcessCrash:
                crashes += 1
                crash_mono = time.monotonic()
                streamer.detach()
                run.journal.op_hook = None
                run.journal.detach()
                run.journal.simulate_crash()
                self.primary_dir = self.group.promote(
                    self.primary_dir, crash_mono
                )
                run = RecoverableRun.resume(
                    self.primary_dir, attempt=attempt + 1
                )
        else:
            raise RuntimeError(
                f"replication session did not complete within "
                f"{max_attempts} attempts"
            )
        self.group.close()
        out = {
            "result": result,
            "crashes": crashes,
            "final_workdir": str(run.workdir),
            **self.group.report(),
        }
        if check_equivalence:
            out["equivalence"] = runner.check_equivalence(
                self.spec, result, self.workdir / "_reference"
            )
        return out

    def _arm_lsn_kills(self, run, pending_lsns):
        if not pending_lsns:
            return

        journal = run.journal

        def kill_hook(seq):
            if (pending_lsns and journal.mode == "append"
                    and seq >= pending_lsns[0]):
                pending_lsns.pop(0)
                raise ProcessCrash(f"injected primary kill at LSN {seq}")

        journal.op_hook = kill_hook

    def _ckpt_kill_hook(self, pending_ckpt):
        if not pending_ckpt:
            return None
        target_step, target_phase = pending_ckpt

        def hook(step, phase):
            if pending_ckpt and step >= target_step and \
                    phase == target_phase:
                pending_ckpt.clear()
                raise ProcessCrash(
                    f"injected primary kill at checkpoint {step} "
                    f"({phase})"
                )

        return hook
