"""Runtime invariant auditing for the merging stack.

The auditor plugs into a live :class:`~repro.virt.hypervisor.Hypervisor`,
:class:`~repro.ksm.daemon.KSMDaemon`, and
:class:`~repro.core.engine.PageForgeEngine` and re-checks, on every
merge/unmerge event and scan interval, the invariants the design relies
on but the hot path never re-derives:

* **content equality at merge time** — after ``merge_pages`` returns, the
  surviving frame holds exactly the bytes the loser page held going in;
* **CoW refcount conservation** — a merge moves one reference (winner
  frame +1, loser frame -1), never creates or leaks one, and the total
  guest-mapped page count is unchanged; ``break_cow`` reverses exactly
  one reference and preserves the writer's bytes;
* **physical frame accounting** — rmap, refcounts, and guest page tables
  agree (via ``Hypervisor.verify_consistency``), every shared frame is
  CoW-protected, and merges free exactly the frames they claim to;
* **red-black tree invariants** — the stable and unstable trees stay
  valid RB trees (root black, no red-red edge, equal black heights,
  in-order non-decreasing content), tolerating stale nodes the daemon
  has not pruned yet;
* **Scan-Table well-formedness** — after every processed table the PFE's
  Scanned bit is set, every Less/More pointer decodes (entry index, miss
  sentinel, or invalid), and a Duplicate hit names a valid entry.

Violations are typed (:class:`InvariantViolation` with a ``kind``) and
counted; in strict mode (the default) the first violation raises, in
recording mode they accumulate for post-mortem inspection.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.scan_table import pointer_sane
from repro.ksm.daemon import StaleNodeError
from repro.ksm.rbtree import BLACK, RED
from repro.virt.hypervisor import MergeRollback


#: Sentinel: the instance dict did not shadow the class method.
_UNSHADOWED = object()


class InvariantViolation(AssertionError):
    """One broken invariant, with a machine-readable ``kind``."""

    def __init__(self, kind, message):
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.detail = message


@dataclass
class _MergeSnapshot:
    """Pre-merge state needed to judge the post-merge state."""

    winner_ppn: int
    loser_ppn: int
    winner_refcount: int
    loser_refcount: int
    loser_bytes: bytes
    allocated_frames: int
    guest_pages: int


class InvariantAuditor:
    """Checks merging invariants as the system runs.

    ``strict=True`` raises on the first violation; otherwise violations
    are recorded (up to ``max_recorded``) and counted, and execution
    continues — useful under fault injection, where violations are the
    measurement rather than a bug.
    """

    def __init__(self, strict=True, max_recorded=64):
        self.strict = strict
        self.max_recorded = max_recorded
        self.checks = Counter()
        self.violations = []
        self._wrapped = []

    # Bookkeeping -----------------------------------------------------------------

    def _passed(self, kind):
        self.checks[kind] += 1

    def _fail(self, kind, message):
        self.checks[kind] += 1
        violation = InvariantViolation(kind, message)
        if len(self.violations) < self.max_recorded:
            self.violations.append(violation)
        else:
            self.violations_dropped = (
                getattr(self, "violations_dropped", 0) + 1
            )
        if self.strict:
            raise violation

    @property
    def total_checks(self):
        return sum(self.checks.values())

    @property
    def clean(self):
        return not self.violations

    def summary(self):
        return (
            f"invariant auditor: {self.total_checks} checks across "
            f"{len(self.checks)} kinds, {len(self.violations)} violations"
        )

    # Hypervisor event wrapping ---------------------------------------------------

    def attach_hypervisor(self, hypervisor):
        """Interpose on merge/CoW-break/unmerge of ``hypervisor``."""
        real_merge = hypervisor.merge_pages
        real_break = hypervisor.break_cow
        real_unmerge = hypervisor.unmerge_page

        def audited_merge(winner_vm, winner_gpn, loser_vm, loser_gpn,
                          verify=True):
            snap = self._snapshot_merge(
                hypervisor, winner_vm, winner_gpn, loser_vm, loser_gpn
            )
            try:
                ppn = real_merge(winner_vm, winner_gpn, loser_vm,
                                 loser_gpn, verify=verify)
            except MergeRollback:
                self._passed("merge-rollback-observed")
                raise
            if snap is not None:
                self._check_merge(hypervisor, snap, winner_vm, winner_gpn,
                                  loser_vm, loser_gpn, ppn)
            return ppn

        def audited_break(vm, gpn):
            before = bytes(
                hypervisor.memory.frame(vm.mapping(gpn).ppn).data
            )
            old_ppn = vm.mapping(gpn).ppn
            old_refcount = hypervisor.memory.frame(old_ppn).refcount
            mapping = real_break(vm, gpn)
            self._check_cow_break(hypervisor, vm, gpn, before, old_ppn,
                                  old_refcount, mapping)
            return mapping

        def audited_unmerge(vm, gpn):
            before = bytes(
                hypervisor.memory.frame(vm.mapping(gpn).ppn).data
            )
            mapping = real_unmerge(vm, gpn)
            after = hypervisor.memory.frame(mapping.ppn).data
            if not np.array_equal(np.frombuffer(before, dtype=np.uint8),
                                  after):
                self._fail(
                    "unmerge-content",
                    f"VM{vm.vm_id}:{gpn} changed contents across unmerge",
                )
            else:
                self._passed("unmerge-content")
            if mapping.mergeable:
                self._fail(
                    "unmerge-flag",
                    f"VM{vm.vm_id}:{gpn} still mergeable after unmerge",
                )
            else:
                self._passed("unmerge-flag")
            return mapping

        wrappers = {
            "merge_pages": audited_merge,
            "break_cow": audited_break,
            "unmerge_page": audited_unmerge,
        }
        for name, wrapper in wrappers.items():
            # Remember whether the instance already shadowed the class
            # method, so detach() can restore the exact prior state.
            prev = hypervisor.__dict__.get(name, _UNSHADOWED)
            self._wrapped.append((hypervisor, name, prev))
            setattr(hypervisor, name, wrapper)
        return self

    def detach(self):
        """Restore every wrapped hypervisor method."""
        for hyp, name, prev in reversed(self._wrapped):
            if prev is _UNSHADOWED:
                hyp.__dict__.pop(name, None)
            else:
                setattr(hyp, name, prev)
        self._wrapped.clear()

    def _snapshot_merge(self, hyp, winner_vm, winner_gpn, loser_vm,
                        loser_gpn):
        winner_map = winner_vm.mapping(winner_gpn)
        loser_map = loser_vm.mapping(loser_gpn)
        if winner_map.ppn == loser_map.ppn:
            return None  # already merged: a no-op, nothing to audit
        return _MergeSnapshot(
            winner_ppn=winner_map.ppn,
            loser_ppn=loser_map.ppn,
            winner_refcount=hyp.memory.frame(winner_map.ppn).refcount,
            loser_refcount=hyp.memory.frame(loser_map.ppn).refcount,
            loser_bytes=bytes(hyp.memory.frame(loser_map.ppn).data),
            allocated_frames=hyp.memory.allocated_frames,
            guest_pages=hyp.guest_pages(),
        )

    def _check_merge(self, hyp, snap, winner_vm, winner_gpn, loser_vm,
                     loser_gpn, ppn):
        label = (
            f"VM{winner_vm.vm_id}:{winner_gpn} <- "
            f"VM{loser_vm.vm_id}:{loser_gpn}"
        )
        # Content equality at merge time: the shared frame must hold the
        # loser's pre-merge bytes (which verify=True proved equal the
        # winner's).
        shared = hyp.memory.frame(ppn)
        if bytes(shared.data) != snap.loser_bytes:
            self._fail(
                "merge-content",
                f"{label}: surviving frame differs from merged contents",
            )
        else:
            self._passed("merge-content")
        # Refcount conservation: winner +1; loser -1 (freed if it hit 0).
        if shared.refcount != snap.winner_refcount + 1:
            self._fail(
                "merge-refcount",
                f"{label}: winner refcount {shared.refcount} != "
                f"{snap.winner_refcount} + 1",
            )
        else:
            self._passed("merge-refcount")
        loser_freed = snap.loser_refcount == 1
        if hyp.memory.is_allocated(snap.loser_ppn):
            survivor_rc = hyp.memory.frame(snap.loser_ppn).refcount
            ok = (not loser_freed
                  and survivor_rc == snap.loser_refcount - 1)
        else:
            ok = loser_freed
        if not ok:
            self._fail(
                "merge-loser-refcount",
                f"{label}: loser frame {snap.loser_ppn} mis-accounted",
            )
        else:
            self._passed("merge-loser-refcount")
        # Frame accounting: exactly one frame freed iff the loser's
        # refcount hit zero; guest-mapped page count conserved.
        expected = snap.allocated_frames - (1 if loser_freed else 0)
        if hyp.memory.allocated_frames != expected:
            self._fail(
                "merge-frame-accounting",
                f"{label}: allocated frames {hyp.memory.allocated_frames}"
                f" != expected {expected}",
            )
        else:
            self._passed("merge-frame-accounting")
        if hyp.guest_pages() != snap.guest_pages:
            self._fail(
                "merge-mapping-conservation",
                f"{label}: guest-mapped page count changed across merge",
            )
        else:
            self._passed("merge-mapping-conservation")
        # CoW protection: both sides write-protected now.
        winner_map = winner_vm.mapping(winner_gpn)
        loser_map = loser_vm.mapping(loser_gpn)
        if not (winner_map.cow and loser_map.cow
                and hyp.is_cow_protected(ppn)):
            self._fail(
                "merge-cow-protection",
                f"{label}: shared frame not fully CoW-protected",
            )
        else:
            self._passed("merge-cow-protection")

    def _check_cow_break(self, hyp, vm, gpn, before, old_ppn,
                         old_refcount, mapping):
        label = f"VM{vm.vm_id}:{gpn}"
        after = hyp.memory.frame(mapping.ppn).data
        if bytes(after) != before:
            self._fail(
                "cow-break-content",
                f"{label}: contents changed across break_cow",
            )
        else:
            self._passed("cow-break-content")
        if mapping.cow:
            self._fail(
                "cow-break-flag", f"{label}: still CoW after break_cow"
            )
        else:
            self._passed("cow-break-flag")
        if old_refcount > 1:
            # Writer moved to a private frame; old frame lost one ref.
            rc = hyp.memory.frame(old_ppn).refcount
            if mapping.ppn == old_ppn or rc != old_refcount - 1:
                self._fail(
                    "cow-break-refcount",
                    f"{label}: old frame {old_ppn} refcount {rc} != "
                    f"{old_refcount} - 1",
                )
            else:
                self._passed("cow-break-refcount")

    # Scan-interval checks (KSM daemon) -------------------------------------------

    def on_scan_interval(self, daemon):
        """Full-state audit after one ``scan_pages`` interval."""
        hyp = daemon.hypervisor

        def stable_live(node):
            # A stable node's content is frozen only while its frame is
            # CoW-protected; once a sole owner breaks protection and
            # writes, the frame mutates in place and the node legally
            # sits out of order until the daemon prunes it.
            _tag, ppn = node.payload
            return (hyp.memory.is_allocated(ppn)
                    and hyp.is_cow_protected(ppn))

        self._check_rbtree(daemon.stable_tree, live=stable_live)
        # The unstable tree is drift-prone by design (its contents are
        # unprotected guest pages — that is why KSM rebuilds it every
        # pass), so only structure is asserted, not ordering.
        self._check_rbtree(daemon.unstable_tree, check_order=False)
        self.audit_frames(daemon.hypervisor)

    def audit_frames(self, hypervisor):
        """Physical frame accounting: rmap/refcount/page-table agreement
        plus shared-implies-protected."""
        try:
            hypervisor.verify_consistency()
            self._passed("frame-accounting")
        except AssertionError as exc:
            self._fail("frame-accounting", str(exc))
        for frame in hypervisor.memory.frames():
            if frame.refcount > 1 and not hypervisor.is_cow_protected(
                frame.ppn
            ):
                self._fail(
                    "shared-unprotected",
                    f"PPN {frame.ppn} shared by {frame.refcount} "
                    "mappings but not CoW-protected",
                )
                break
        else:
            self._passed("shared-unprotected")

    def _check_rbtree(self, tree, live=None, check_order=True):
        """Validate RB structure + content ordering.

        ``live(node)`` gates which nodes participate in the ordering
        check — nodes whose backing content may legally have drifted
        since insertion (stale, or no longer write-protected) are
        skipped; the daemon prunes them lazily and structure must still
        hold around them.  ``check_order=False`` limits the audit to
        structural invariants (for the drift-prone unstable tree).
        """
        nil = tree._nil
        kind = f"rbtree-{tree.name}"
        if tree.root.color != BLACK:
            self._fail(kind, "root is not black")
            return

        def black_height(node):
            if node is nil:
                return 1
            if node.color == RED and (node.left.color == RED
                                      or node.right.color == RED):
                raise InvariantViolation(kind, "red node with red child")
            left = black_height(node.left)
            right = black_height(node.right)
            if left != right:
                raise InvariantViolation(kind, "unequal black heights")
            return left + (1 if node.color == BLACK else 0)

        try:
            black_height(tree.root)
        except InvariantViolation as exc:
            self._fail(kind, exc.detail)
            return
        # Ordering: in-order traversal non-decreasing over live keys.
        prev_key = None
        count = 0
        for node in tree:
            count += 1
            if not check_order:
                continue
            if live is not None and not live(node):
                continue  # content may legally have drifted
            try:
                key = node.key()
            except StaleNodeError:
                continue  # stale node: content no longer comparable
            if prev_key is not None:
                sign, _cost = tree._compare(prev_key, key)
                if sign > 0:
                    self._fail(kind, "in-order traversal out of order")
                    return
            prev_key = key
        if count != len(tree):
            self._fail(
                kind, f"size mismatch: {count} nodes vs size {len(tree)}"
            )
            return
        self._passed(kind)

    # Scan-Table checks (PageForge engine) ----------------------------------------

    def on_table_processed(self, table):
        """Well-formedness after every ``process_table`` completion."""
        pfe = table.pfe
        kind = "scan-table"
        if not pfe.scanned:
            self._fail(kind, "Scanned bit clear after process_table")
            return
        if pfe.duplicate and not table.index_valid(pfe.ptr):
            self._fail(
                kind,
                f"Duplicate set but Ptr {pfe.ptr} names no valid entry",
            )
            return
        if not pfe.duplicate and table.index_valid(pfe.ptr):
            self._fail(
                kind,
                f"walk ended on valid entry {pfe.ptr} without Duplicate",
            )
            return
        if pfe.hash_ready and pfe.hash_key is None:
            self._fail(kind, "Hash-Key-Ready set but hash key is None")
            return
        for i, entry in enumerate(table.entries):
            if not entry.valid:
                continue
            for name, ptr in (("Less", entry.less), ("More", entry.more)):
                if not pointer_sane(ptr, table.n_entries):
                    self._fail(
                        kind,
                        f"entry {i} {name} holds undecodable index {ptr}",
                    )
                    return
        self._passed(kind)

    # Attachment helpers ----------------------------------------------------------

    def attach_daemon(self, daemon):
        """Audit a KSM daemon: its hypervisor events + per-interval
        tree/frame checks (via ``KSMDaemon.audit_hook``)."""
        self.attach_hypervisor(daemon.hypervisor)
        daemon.audit_hook = self.on_scan_interval
        return self

    def attach_engine(self, engine):
        """Audit a PageForge engine's Scan-Table state after every
        processed table (via ``PageForgeEngine.audit_hook``)."""
        engine.audit_hook = self.on_table_processed
        return self

    def attach_bundle(self, bundle, hypervisor):
        """Audit one merge stack (a ``MergerBundle``, or ``None`` for no
        merging) over ``hypervisor``.

        The hypervisor is wrapped exactly once: through the daemon when
        there is one, else directly.  A PageForge driver adds its
        engine's Scan-Table checks.
        """
        daemon = bundle.daemon if bundle is not None else None
        if daemon is not None:
            self.attach_daemon(daemon)
        else:
            self.attach_hypervisor(hypervisor)
        if bundle is not None and bundle.driver is not None:
            self.attach_engine(bundle.driver.engine)
        return self
