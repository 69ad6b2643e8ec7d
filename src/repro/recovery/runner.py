"""The checkpointable merge run: checkpoint + journal + deterministic resume.

:class:`RecoverableRun` wraps the same merging stack the chaos campaigns
exercise (hypervisor + KSM daemon or PageForge driver + fault injector +
optional degradation governor) in a crash-safe loop:

* every merge op is journaled (:mod:`repro.recovery.journal`);
* every ``checkpoint_every`` intervals the **full** component state is
  snapshotted (:mod:`repro.recovery.serialize` + ``CheckpointStore``);
* ``interval_hook`` is called after each committed interval; the
  replication streamer uses it to send the liveness frames a supervisor
  watches for stalls.

Recovery is *resume-by-re-execution*: restore the newest valid
checkpoint, then re-run the remaining intervals.  Because every RNG
stream, free-list ordering and rmap iteration order is part of the
snapshot, the re-execution is bit-identical to the lost original — the
journal is placed in lockstep-verify mode over the surviving records, so
any divergence from the pre-crash trajectory raises
:class:`~repro.recovery.journal.RecoveryDivergence` instead of silently
forking history.  Once the verify cursor drains, the journal flips back
to append mode and the run continues onto new ground.

The **crash-equivalence guarantee** this module is tested against: a run
that crashes (any number of times) and resumes produces a final state
fingerprint byte-identical to the same spec run uninterrupted
(:func:`check_equivalence`).  The crash/resume drivers live in
:mod:`repro.recovery.replication`; with zero replicas they are the
single-node tier.
"""

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from repro.common.config import TAILBENCH_APPS
from repro.common.io import atomic_write_text
from repro.faults.injector import ProcessCrash
from repro.faults.plan import FaultPlan
from repro.recovery.journal import MergeJournal, read_journal
from repro.recovery.serialize import jsonify, page_digests
from repro.recovery.snapshot import CheckpointStore
from repro.sim.backends import get_backend, recoverable_backends
from repro.sim.host import FunctionalHost


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to (re)construct a recoverable run — pure data."""

    app: str = "moses"
    mode: str = "pageforge"  # any backend with supports_recovery
    seed: int = 0
    pages_per_vm: int = 60
    n_vms: int = 3
    intervals: int = 8
    pages_per_interval: int = 0  # 0 -> 2 * pages_per_vm * n_vms
    checkpoint_every: int = 2
    keep_checkpoints: int = 3
    use_governor: bool = False
    plan: FaultPlan = field(default_factory=FaultPlan)
    # Test hook: attempt 0 stops streaming at this interval and spins,
    # exercising the supervisor's stall watchdog.  None in real runs.
    stall_at_interval: int = None

    def __post_init__(self):
        backend_cls = get_backend(self.mode)  # raises on unknown names
        if not backend_cls.supports_recovery:
            raise ValueError(
                f"backend {self.mode!r} does not support crash-safe "
                f"recovery; recoverable backends: "
                f"{', '.join(recoverable_backends())}"
            )
        if self.app not in TAILBENCH_APPS:
            raise ValueError(f"unknown app: {self.app!r}")

    @property
    def scan_batch(self):
        return self.pages_per_interval or 2 * self.pages_per_vm * self.n_vms

    def to_json(self):
        data = asdict(self)
        return json.dumps(jsonify(data), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        data["plan"] = FaultPlan(**data["plan"])
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def without_crashes(self):
        """The same spec with process-crash injection disabled — the
        uninterrupted reference run of the crash-equivalence check."""
        quiet_plan = replace(self.plan, process_crash_prob=0.0,
                             crash_after_ops=0)
        return replace(self, plan=quiet_plan, stall_at_interval=None)


def check_equivalence(spec, result, ref_dir):
    """Replay ``spec`` uninterrupted in ``ref_dir`` and compare the final
    fingerprint with a crashed-and-recovered run's ``result``."""
    ref_result = RecoverableRun(
        spec.without_crashes(), ref_dir, attempt=0
    ).run()
    return {
        "fingerprint": result["fingerprint"],
        "reference_fingerprint": ref_result["fingerprint"],
        "equivalent": result["fingerprint"] == ref_result["fingerprint"],
        "reference_validation": ref_result["validation"],
    }


class RecoverableRun:
    """One crash-safe merge run rooted at ``workdir``.

    Build fresh with ``RecoverableRun(spec, workdir)`` (writes
    ``spec.json``) or resurrect a crashed one with
    :meth:`RecoverableRun.resume`.
    """

    def __init__(self, spec, workdir, attempt=0, _state=None):
        self.spec = spec
        self.workdir = Path(workdir)
        self.attempt = int(attempt)
        self.workdir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.workdir / "spec.json", spec.to_json())
        self.store = CheckpointStore(
            self.workdir / "checkpoints", keep=spec.keep_checkpoints
        )
        self.journal = MergeJournal(self.workdir / "journal.jsonl")
        self.start_interval = 0
        self.footprints = []
        self.resumed_from_step = None
        self.replayed_records = 0
        self.checkpoints_written = 0
        self.interval_hook = None
        # The fault plan arms the host: recovery runs compare every line
        # (line_sampling=1), so the oracle grading in validate() sees no
        # sampling artefacts.
        self.host = FunctionalHost(
            f"recoverable/{spec.app}/{spec.mode}", backend=spec.mode,
            app=spec.app, n_vms=spec.n_vms, pages_per_vm=spec.pages_per_vm,
            seed=spec.seed, pages_to_scan=spec.scan_batch,
            fault_plan=spec.plan, state=_state,
        )
        if not spec.use_governor:
            self.host.governor = None
        self.hypervisor = self.host.hypervisor
        self.daemon = self.host.bundle.daemon
        self.driver = self.host.bundle.driver
        self.injector = self.host.injector
        self.injector.set_crash_attempt(self.attempt)
        self.governor = self.host.governor
        if _state is not None:
            self.footprints = list(_state["footprints"])
            self.start_interval = _state["interval"]

    # Checkpoint / restore ----------------------------------------------------------

    def capture_state(self):
        return {
            "interval": self.start_interval,
            "footprints": list(self.footprints),
            **self.host.capture(),
        }

    @classmethod
    def resume(cls, workdir, attempt=1):
        """Resurrect a run from ``workdir``'s checkpoints + journal.

        Falls back through corrupt checkpoints; with no usable checkpoint
        at all the run restarts from interval 0 — the journal still
        lockstep-verifies the whole re-execution.
        """
        workdir = Path(workdir)
        spec = RunSpec.from_json((workdir / "spec.json").read_text())
        probe = CheckpointStore(
            workdir / "checkpoints", keep=spec.keep_checkpoints
        )
        state, header = probe.latest() or (None, None)
        run = cls(spec, workdir, attempt=attempt, _state=state)
        run.store.skipped_corrupt = probe.skipped_corrupt
        records, _dropped = read_journal(workdir / "journal.jsonl")
        if header is not None:
            run.resumed_from_step = header["step"]
            run.journal.seq = header["journal_seq"]
            remaining = [
                r for r in records if r["seq"] >= header["journal_seq"]
            ]
        else:
            remaining = records
        run.journal.interval = run.start_interval
        run.journal.begin_verify(remaining)
        run.replayed_records = len(remaining)
        return run

    # Execution --------------------------------------------------------------------

    def _maybe_stall(self, interval):
        if (
            self.attempt == 0
            and self.spec.stall_at_interval is not None
            and interval == self.spec.stall_at_interval
        ):
            while True:  # the watchdog's SIGKILL is the only way out
                time.sleep(0.5)

    def run(self):
        """Run (or continue) through the remaining intervals."""
        spec = self.spec
        self.journal.open()
        if self.attempt == 0 and spec.plan.crash_after_ops > 0:
            threshold = spec.plan.crash_after_ops

            def crash_hook(seq):
                if seq >= threshold and self.journal.mode == "append":
                    raise ProcessCrash(f"injected crash after op {seq}")

            self.journal.op_hook = crash_hook
        self.journal.attach_hypervisor(self.hypervisor)
        try:
            for interval in range(self.start_interval, spec.intervals):
                self._maybe_stall(interval)
                self.host.armed_interval()
                footprint = self.hypervisor.footprint_pages()
                self.footprints.append(footprint)
                self.journal.commit_interval(interval, footprint)
                self.start_interval = interval + 1
                if self.interval_hook is not None:
                    self.interval_hook(interval)
                crash_now = self.injector.maybe_crash()
                if (
                    spec.checkpoint_every
                    and (interval + 1) % spec.checkpoint_every == 0
                    and not crash_now
                ):
                    self.store.save(
                        interval + 1, self.capture_state(),
                        journal_seq=self.journal.seq,
                        meta={"attempt": self.attempt},
                    )
                    self.checkpoints_written += 1
                if crash_now:
                    raise ProcessCrash(
                        f"injected crash after interval {interval}"
                    )
        finally:
            self.journal.detach()
        self.journal.close()
        return self.finish()

    # Results ---------------------------------------------------------------------

    def fingerprint(self):
        """Canonical digest of every observable of the run's final state."""
        hyp = self.hypervisor
        merge_sets = sorted(
            [ppn, sorted([list(pair) for pair in sharers])]
            for ppn, sharers in hyp._rmap.items()
            if len(sharers) > 1
        )
        material = {
            "merge_sets": merge_sets,
            "pages": page_digests(hyp),
            "hyp_stats": asdict(hyp.stats),
            "memory": [
                hyp.memory.allocated_frames,
                hyp.memory.peak_allocated,
                hyp.memory.total_allocations,
                hyp.memory.total_frees,
            ],
            "daemon_stats": asdict(self.daemon.stats),
            "injector": self.injector.stats.snapshot(),
            "footprints": self.footprints,
        }
        if self.driver is not None:
            engine_stats = asdict(self.driver.engine.stats)
            engine_stats.pop("table_cycles", None)
            material["engine_stats"] = engine_stats
            material["fault_stats"] = asdict(self.driver.fault_stats)
            controller = self.driver.engine.controller
            material["ecc"] = asdict(controller.ecc.stats)
            dram = controller.dram.stats
            material["dram"] = [
                dram.reads, dram.writes, dram.row_hits, dram.row_misses,
            ]
            material["backend"] = self.driver.backend
        if self.governor is not None:
            material["transitions"] = [
                list(t) for t in self.governor.transitions
            ]
        canonical = json.dumps(
            jsonify(material), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.blake2b(canonical, digest_size=16).hexdigest()

    def validate(self):
        """Audit the (possibly recovered) state with PR 3's machinery.

        Runs the :class:`InvariantAuditor` structural checks and grades
        the merge state against the content oracle; a recovered run must
        come back with ``auditor_clean`` and ``zero_false_merges``.
        """
        from repro.verify.invariants import InvariantAuditor
        from repro.verify.oracle import compare_to_oracle, reference_partition

        auditor = InvariantAuditor(strict=False)
        auditor.audit_frames(self.hypervisor)
        auditor.on_scan_interval(self.daemon)
        self.hypervisor.verify_consistency()
        oracle = reference_partition(self.hypervisor, mergeable_only=True)
        report = compare_to_oracle(
            self.hypervisor, oracle, backend=self.spec.mode
        )
        return {
            "auditor_clean": auditor.clean,
            "auditor_checks": auditor.total_checks,
            "auditor_violations": [
                str(v) for v in auditor.violations[:8]
            ],
            "zero_false_merges": report.zero_false_merges,
            "merged_pairs": report.merged_pairs,
            "oracle_pairs": report.oracle_pairs,
        }

    def finish(self):
        """Final checkpoint + result.json; returns the result dict."""
        self.store.save(
            self.spec.intervals, self.capture_state(),
            journal_seq=self.journal.seq,
            meta={"attempt": self.attempt, "final": True},
        )
        self.checkpoints_written += 1
        validation = self.validate()
        result = {
            "spec": json.loads(self.spec.to_json()),
            "attempt": self.attempt,
            "intervals_run": self.start_interval,
            "resumed_from_step": self.resumed_from_step,
            "replayed_records": self.replayed_records,
            "checkpoints_written": self.checkpoints_written,
            "skipped_corrupt_checkpoints": self.store.skipped_corrupt,
            "ops_journaled": self.journal.ops_journaled,
            "ops_verified": self.journal.ops_verified,
            "journal_fsyncs": self.journal.fsyncs,
            "guest_pages": self.hypervisor.guest_pages(),
            "footprint_pages": self.hypervisor.footprint_pages(),
            "merges": self.daemon.stats.merges,
            "fingerprint": self.fingerprint(),
            "validation": validation,
        }
        atomic_write_text(
            self.workdir / "result.json",
            json.dumps(jsonify(result), sort_keys=True, indent=2),
        )
        return result

