"""The write-ahead merge journal: durable redo records for every merge op.

Every state-changing hypervisor operation the merging stack performs —
``merge_pages``, ``break_cow``, ``unmerge_page``, ``destroy_vm`` — is
captured as one JSON-line *redo record* carrying its arguments, its
outcome (the resulting PPN and a digest of the surviving frame's bytes)
and a per-record checksum.  Records are buffered and flushed in batches
(``flush_every``) with a real ``fsync``, so a crash loses at most the
unflushed tail; a torn final line (half a record on disk) is detected by
the checksum and dropped on load, exactly like an LSM store's WAL tail.

The journal serves three roles:

1. **Redo replay** (:func:`replay_journal`): applied idempotently on top
   of a restored snapshot, the records rebuild the hypervisor's merge
   state op-for-op — each record checks whether its effect is already
   present before re-executing, so replaying twice is harmless.
2. **Lockstep divergence detection**: when a crashed run resumes, it
   deterministically *re-executes* from the checkpoint; the journal is
   switched into verify mode and every re-executed op is compared
   against the surviving records.  A mismatch means the replayed world
   differs from the pre-crash one — :class:`RecoveryDivergence`.
3. **Audit trail**: the on-disk file is a human-readable history of
   every merge decision of the run.

Attachment uses the same instance-``__dict__`` shadowing pattern as
:class:`repro.verify.invariants.InvariantAuditor`, so both wrappers
compose on one hypervisor.
"""

import hashlib
import json
import os
from pathlib import Path

from repro.virt.hypervisor import MergeRollback

#: The instance dict did not shadow the class method.
_UNSHADOWED = object()


class JournalCorrupt(RuntimeError):
    """A journal record failed its checksum away from the torn tail."""


class RecoveryDivergence(RuntimeError):
    """A re-executed operation disagreed with its journaled record."""


def _record_crc(record):
    material = json.dumps(
        {k: v for k, v in record.items() if k != "crc"}, sort_keys=True
    ).encode("utf-8")
    return hashlib.blake2b(material, digest_size=8).hexdigest()


def encode_record(record):
    record = dict(record)
    record["crc"] = _record_crc(record)
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def read_journal(path):
    """Load all valid records; returns (records, dropped_tail_lines).

    Only a *torn tail* may legitimately be damaged: a crash mid-write
    cuts the final record short, and since ``json.dumps`` never emits a
    raw newline inside a record, a torn record is always missing its
    trailing ``\\n``.  A record that is newline-complete but fails its
    checksum — at the end of the file or anywhere before it — is silent
    corruption and raises :class:`JournalCorrupt`.  This matters for
    replica-received journals: a lossy transport must surface damage,
    not launder it as an innocent torn tail.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    raw = path.read_bytes()
    if not raw:
        return [], 0
    lines = raw.split(b"\n")
    trailing_newline = raw.endswith(b"\n")
    if trailing_newline:
        lines = lines[:-1]
    records = []
    dropped = 0
    for i, line in enumerate(lines):
        is_last = i == len(lines) - 1
        torn_candidate = is_last and not trailing_newline
        try:
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            if record.get("crc") != _record_crc(record):
                raise ValueError("crc mismatch")
        except (UnicodeDecodeError, ValueError):
            if torn_candidate:
                dropped += 1
                break
            raise JournalCorrupt(
                f"{path}: corrupt record at line {i + 1}"
            ) from None
        if torn_candidate:
            # A complete-looking record without its newline is still a
            # torn write; the bytes may coincide with valid JSON only by
            # luck, but a valid crc makes it trustworthy — keep it.
            pass
        records.append(record)
    return records, dropped


def frame_digest(frame):
    return hashlib.blake2b(frame.data.tobytes(), digest_size=8).hexdigest()


class MergeJournal:
    """Appends (or verifies) one redo record per hypervisor merge op."""

    def __init__(self, path, flush_every=8):
        self.path = Path(path)
        self.flush_every = int(flush_every)
        self._fd = None
        self._pending = []
        self.seq = 0
        self.interval = 0
        self.mode = "append"  # or "verify"
        self._cursor = []
        self._cursor_pos = 0
        self._hypervisor = None
        self._saved = {}
        # After each appended record the journal calls op_hook(seq);
        # the recoverable runner points this at its crash trigger.
        self.op_hook = None
        # After each *durable* batch the journal hands every flushed
        # record (encoded line bytes) to sink(line); the replication
        # streamer points this at the wire.  Durability-ordering
        # matters: a record is only streamed once it is fsynced here,
        # so replicas can never hold a record the primary might lose.
        self.sink = None
        self.ops_journaled = 0
        self.ops_verified = 0
        self.fsyncs = 0

    # Durability -----------------------------------------------------------------

    def open(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        return self

    def close(self):
        self.flush()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def flush(self):
        if self._fd is None or not self._pending:
            self._pending.clear()
            return
        batch = self._pending
        self._pending = []
        os.write(self._fd, b"".join(batch))
        os.fsync(self._fd)
        self.fsyncs += 1
        if self.sink is not None:
            for line in batch:
                self.sink(line)

    def simulate_crash(self, torn=False):
        """Die like a SIGKILL: drop the unflushed batch buffer.

        With ``torn=True`` half of the first pending record reaches the
        disk first — the torn-tail case the loader must tolerate.
        """
        if self._fd is not None and torn and self._pending:
            first = self._pending[0]
            os.write(self._fd, first[: max(1, len(first) // 2)])
            os.fsync(self._fd)
        self._pending.clear()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # Verify-mode plumbing ---------------------------------------------------------

    def begin_verify(self, records):
        """Arm lockstep verification against surviving records.

        ``records`` are the journal entries *after* the checkpoint being
        resumed from; re-executed ops must match them one-for-one.  Once
        the cursor is exhausted the journal switches back to append mode
        and new records hit the disk again.
        """
        self._cursor = list(records)
        self._cursor_pos = 0
        if self._cursor:
            self.mode = "verify"
            self.seq = self._cursor[0]["seq"]
        return self

    def _emit(self, op, args):
        record = {
            "seq": self.seq,
            "interval": self.interval,
            "op": op,
            "args": args,
        }
        if self.mode == "verify":
            expected = self._cursor[self._cursor_pos]
            if (
                expected["seq"] != record["seq"]
                or expected["op"] != record["op"]
                or expected["args"] != record["args"]
            ):
                raise RecoveryDivergence(
                    f"re-executed op {record} != journaled {expected}"
                )
            self._cursor_pos += 1
            self.ops_verified += 1
            if self._cursor_pos >= len(self._cursor):
                self.mode = "append"
        else:
            self._pending.append(encode_record(record))
            self.ops_journaled += 1
            if len(self._pending) >= self.flush_every:
                self.flush()
        self.seq += 1
        if self.op_hook is not None:
            self.op_hook(self.seq)

    def commit_interval(self, interval, footprint):
        """Interval-boundary marker; always flushed (a commit point)."""
        self._emit("commit", {"i": int(interval), "footprint": int(footprint)})
        self.interval = int(interval) + 1
        if self.mode == "append":
            self.flush()

    # Hypervisor attachment ---------------------------------------------------------

    def attach_hypervisor(self, hypervisor):
        journal = self
        hyp_cls = type(hypervisor)
        self._hypervisor = hypervisor
        self._saved = {
            name: hypervisor.__dict__.get(name, _UNSHADOWED)
            for name in ("merge_pages", "break_cow", "unmerge_page",
                         "destroy_vm")
        }

        inner_merge = hypervisor.merge_pages
        inner_break = hypervisor.break_cow
        inner_unmerge = hypervisor.unmerge_page
        inner_destroy = hypervisor.destroy_vm

        def journaled_merge(winner_vm, winner_gpn, loser_vm, loser_gpn,
                            verify=True):
            try:
                ppn = inner_merge(winner_vm, winner_gpn, loser_vm,
                                  loser_gpn, verify=verify)
            except MergeRollback:
                journal._emit("merge_rollback", {
                    "wv": winner_vm.vm_id, "wg": winner_gpn,
                    "lv": loser_vm.vm_id, "lg": loser_gpn,
                })
                raise
            journal._emit("merge", {
                "wv": winner_vm.vm_id, "wg": winner_gpn,
                "lv": loser_vm.vm_id, "lg": loser_gpn,
                "ppn": ppn,
                "digest": frame_digest(hypervisor.memory.frame(ppn)),
            })
            return ppn

        def journaled_break(vm, gpn):
            mapping = inner_break(vm, gpn)
            journal._emit("break_cow", {
                "v": vm.vm_id, "g": gpn, "ppn": mapping.ppn,
                "digest": frame_digest(
                    hypervisor.memory.frame(mapping.ppn)
                ),
            })
            return mapping

        def journaled_unmerge(vm, gpn):
            mapping = inner_unmerge(vm, gpn)
            journal._emit("unmerge", {
                "v": vm.vm_id, "g": gpn, "ppn": mapping.ppn,
            })
            return mapping

        def journaled_destroy(vm):
            result = inner_destroy(vm)
            journal._emit("vm_destroy", {"v": vm.vm_id})
            return result

        assert hyp_cls.merge_pages  # the class methods must exist
        hypervisor.merge_pages = journaled_merge
        hypervisor.break_cow = journaled_break
        hypervisor.unmerge_page = journaled_unmerge
        hypervisor.destroy_vm = journaled_destroy
        return self

    def detach(self):
        if self._hypervisor is None:
            return
        for name, saved in self._saved.items():
            if saved is _UNSHADOWED:
                self._hypervisor.__dict__.pop(name, None)
            else:
                self._hypervisor.__dict__[name] = saved
        self._hypervisor = None
        self._saved = {}


def replay_journal(hypervisor, records, strict=True):
    """Idempotently re-apply redo ``records`` to ``hypervisor``.

    Each record checks whether its effect already holds (the op is then
    a no-op), so replaying a prefix that a snapshot already covers — or
    replaying the whole journal twice — converges to the same state.
    Returns ``{"applied": n, "skipped": n, "mismatches": n}``; with
    ``strict=True`` a result-PPN or digest mismatch raises
    :class:`RecoveryDivergence` instead of counting.
    """
    stats = {"applied": 0, "skipped": 0, "mismatches": 0}

    def mismatch(message):
        if strict:
            raise RecoveryDivergence(message)
        stats["mismatches"] += 1

    for record in records:
        op = record["op"]
        args = record["args"]
        if op in ("commit", "merge_rollback"):
            stats["skipped"] += 1
            continue
        if op == "vm_destroy":
            vm = hypervisor.vms.get(args["v"])
            if vm is None:
                stats["skipped"] += 1
            else:
                hypervisor.destroy_vm(vm)
                stats["applied"] += 1
            continue
        if op == "merge":
            winner_vm = hypervisor.vms.get(args["wv"])
            loser_vm = hypervisor.vms.get(args["lv"])
            if winner_vm is None or loser_vm is None:
                stats["skipped"] += 1
                continue
            if (winner_vm.mapping(args["wg"]).ppn
                    == loser_vm.mapping(args["lg"]).ppn):
                stats["skipped"] += 1  # already merged
                continue
            try:
                ppn = hypervisor.merge_pages(
                    winner_vm, args["wg"], loser_vm, args["lg"]
                )
            except MergeRollback:
                mismatch(f"replayed merge rolled back: {record}")
                continue
            if ppn != args["ppn"]:
                mismatch(
                    f"merge replay landed on PPN {ppn}, journal says "
                    f"{args['ppn']}"
                )
            elif frame_digest(hypervisor.memory.frame(ppn)) != args["digest"]:
                mismatch(f"merge replay content digest mismatch: {record}")
            stats["applied"] += 1
            continue
        if op == "break_cow":
            vm = hypervisor.vms.get(args["v"])
            if vm is None or not vm.is_mapped(args["g"]):
                stats["skipped"] += 1
                continue
            mapping = vm.mapping(args["g"])
            frame = hypervisor.memory.frame(mapping.ppn)
            if not mapping.cow and frame.refcount == 1:
                stats["skipped"] += 1  # already broken
                continue
            mapping = hypervisor.break_cow(vm, args["g"])
            if mapping.ppn != args["ppn"]:
                mismatch(
                    f"break_cow replay landed on PPN {mapping.ppn}, "
                    f"journal says {args['ppn']}"
                )
            stats["applied"] += 1
            continue
        if op == "unmerge":
            vm = hypervisor.vms.get(args["v"])
            if vm is None or not vm.is_mapped(args["g"]):
                stats["skipped"] += 1
                continue
            mapping = vm.mapping(args["g"])
            if not mapping.mergeable and mapping.ppn == args["ppn"]:
                stats["skipped"] += 1  # already unmerged
                continue
            mapping = hypervisor.unmerge_page(vm, args["g"])
            if mapping.ppn != args["ppn"]:
                mismatch(
                    f"unmerge replay landed on PPN {mapping.ppn}, "
                    f"journal says {args['ppn']}"
                )
            stats["applied"] += 1
            continue
        mismatch(f"unknown journal op: {op!r}")
    return stats
