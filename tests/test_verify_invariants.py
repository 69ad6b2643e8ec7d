"""Tests for the runtime invariant auditor."""

import numpy as np
import pytest

from repro.common.config import TAILBENCH_APPS
from repro.common.rng import DeterministicRNG
from repro.common.units import PAGE_BYTES
from repro.core.scan_table import ScanTable, miss_sentinel
from repro.ksm import KSMDaemon
from repro.ksm.rbtree import ContentRBTree, RBNode, RED
from repro.sim.system import MODES, ServerSystem, SimulationScale
from repro.verify.invariants import InvariantAuditor, InvariantViolation
from repro.virt.hypervisor import MergeRollback


class TestMergeAuditing:
    def test_clean_merge_passes_all_checks(self, two_vm_setup):
        hypervisor, vms = two_vm_setup
        auditor = InvariantAuditor(strict=True)
        auditor.attach_hypervisor(hypervisor)
        hypervisor.merge_pages(vms[0], 0, vms[1], 0)
        assert auditor.clean
        for kind in ("merge-content", "merge-refcount",
                     "merge-loser-refcount", "merge-frame-accounting",
                     "merge-mapping-conservation", "merge-cow-protection"):
            assert auditor.checks[kind] == 1, kind

    def test_merge_rollback_passes_through(self, two_vm_setup):
        hypervisor, vms = two_vm_setup
        auditor = InvariantAuditor(strict=True)
        auditor.attach_hypervisor(hypervisor)
        with pytest.raises(MergeRollback):
            hypervisor.merge_pages(vms[0], 1, vms[1], 1)  # unique pages
        assert auditor.clean
        assert auditor.checks["merge-rollback-observed"] == 1

    def test_corrupted_merge_content_detected(self, two_vm_setup):
        """A merge implementation that scribbles on the surviving frame
        is caught by the content-equality check."""
        hypervisor, vms = two_vm_setup
        real_merge = hypervisor.merge_pages

        def scribbling_merge(*args, **kwargs):
            ppn = real_merge(*args, **kwargs)
            hypervisor.memory.frame(ppn).data[0] ^= 0xFF  # the bug
            return ppn

        hypervisor.merge_pages = scribbling_merge
        auditor = InvariantAuditor(strict=True)
        auditor.attach_hypervisor(hypervisor)
        with pytest.raises(InvariantViolation) as excinfo:
            hypervisor.merge_pages(vms[0], 0, vms[1], 0)
        assert excinfo.value.kind == "merge-content"

    def test_refcount_leak_detected(self, two_vm_setup):
        hypervisor, vms = two_vm_setup
        real_merge = hypervisor.merge_pages

        def leaking_merge(winner_vm, winner_gpn, loser_vm, loser_gpn,
                          verify=True):
            ppn = real_merge(winner_vm, winner_gpn, loser_vm, loser_gpn,
                             verify=verify)
            hypervisor.memory.incref(ppn)  # the bug: an extra reference
            return ppn

        hypervisor.merge_pages = leaking_merge
        auditor = InvariantAuditor(strict=False)
        auditor.attach_hypervisor(hypervisor)
        hypervisor.merge_pages(vms[0], 0, vms[1], 0)
        kinds = {v.kind for v in auditor.violations}
        assert "merge-refcount" in kinds

    def test_cow_break_content_preserved(self, two_vm_setup):
        hypervisor, vms = two_vm_setup
        auditor = InvariantAuditor(strict=True)
        auditor.attach_hypervisor(hypervisor)
        hypervisor.merge_pages(vms[0], 0, vms[1], 0)
        hypervisor.guest_write(vms[1], 0, 10, [0x42])
        assert auditor.clean
        assert auditor.checks["cow-break-content"] >= 1
        assert auditor.checks["cow-break-refcount"] >= 1

    def test_unmerge_audited(self, two_vm_setup):
        hypervisor, vms = two_vm_setup
        auditor = InvariantAuditor(strict=True)
        auditor.attach_hypervisor(hypervisor)
        hypervisor.merge_pages(vms[0], 0, vms[1], 0)
        hypervisor.unmerge_page(vms[1], 0)
        assert auditor.clean
        assert auditor.checks["unmerge-content"] == 1
        assert auditor.checks["unmerge-flag"] == 1

    def test_detach_restores_methods(self, two_vm_setup):
        hypervisor, vms = two_vm_setup
        auditor = InvariantAuditor()
        auditor.attach_hypervisor(hypervisor)
        assert "merge_pages" in hypervisor.__dict__  # shadowed by wrapper
        auditor.detach()
        # Back to plain class-method dispatch, nothing shadowed.
        for name in ("merge_pages", "break_cow", "unmerge_page"):
            assert name not in hypervisor.__dict__


class TestStructuralChecks:
    def test_frame_accounting_detects_rmap_desync(self, two_vm_setup):
        hypervisor, _vms = two_vm_setup
        auditor = InvariantAuditor(strict=False)
        auditor.audit_frames(hypervisor)
        assert auditor.clean
        # Desynchronize the reverse map and re-audit.
        ppn = next(iter(hypervisor._rmap))
        hypervisor._rmap[ppn].add((99, 99))
        auditor.audit_frames(hypervisor)
        assert not auditor.clean
        assert auditor.violations[0].kind == "frame-accounting"

    def test_shared_frame_without_protection_detected(self, two_vm_setup):
        hypervisor, vms = two_vm_setup
        hypervisor.merge_pages(vms[0], 0, vms[1], 0)
        auditor = InvariantAuditor(strict=False)
        shared_ppn = vms[0].mapping(0).ppn
        hypervisor._cow_ppns.discard(shared_ppn)  # the bug
        auditor.audit_frames(hypervisor)
        kinds = {v.kind for v in auditor.violations}
        assert "shared-unprotected" in kinds

    def test_rbtree_red_red_detected(self):
        tree = ContentRBTree("stable")
        pages = [np.full(PAGE_BYTES, fill, dtype=np.uint8)
                 for fill in (10, 20, 30)]
        for page in pages:
            tree.insert(RBNode(lambda p=page: p, payload=("stable", 0)))
        auditor = InvariantAuditor(strict=False)
        auditor._check_rbtree(tree, check_order=False)
        assert auditor.clean
        # Paint a red-red edge.
        tree.root.color = RED
        auditor._check_rbtree(tree, check_order=False)
        assert not auditor.clean

    def test_rbtree_ordering_violation_detected(self):
        tree = ContentRBTree("stable")
        backing = [np.full(PAGE_BYTES, fill, dtype=np.uint8)
                   for fill in (10, 20, 30)]
        nodes = [RBNode(lambda p=page: p, payload=("stable", 0))
                 for page in backing]
        for node in nodes:
            tree.insert(node)
        auditor = InvariantAuditor(strict=False)
        auditor._check_rbtree(tree)
        assert auditor.clean
        backing[0][:] = 99  # now larger than its in-order successors
        auditor._check_rbtree(tree)
        kinds = {v.kind for v in auditor.violations}
        assert "rbtree-stable" in kinds

    def test_scan_table_well_formed_passes(self):
        table = ScanTable(n_entries=4)
        table.pfe.valid = True
        table.pfe.scanned = True
        table.pfe.ptr = miss_sentinel(2, "left")
        for i in range(3):
            entry = table.entries[i]
            entry.valid = True
            entry.ppn = i
            entry.less = miss_sentinel(i, "left")
            entry.more = miss_sentinel(i, "right")
        auditor = InvariantAuditor(strict=False)
        auditor.on_table_processed(table)
        assert auditor.clean
        assert auditor.checks["scan-table"] == 1

    def test_scan_table_rotten_pointer_detected(self):
        table = ScanTable(n_entries=4)
        table.pfe.valid = True
        table.pfe.scanned = True
        entry = table.entries[0]
        entry.valid = True
        entry.less = 77  # out of range, not a sentinel: bit rot
        auditor = InvariantAuditor(strict=False)
        auditor.on_table_processed(table)
        assert not auditor.clean
        assert auditor.violations[0].kind == "scan-table"

    def test_scan_table_duplicate_needs_valid_ptr(self):
        table = ScanTable(n_entries=4)
        table.pfe.valid = True
        table.pfe.scanned = True
        table.pfe.duplicate = True
        table.pfe.ptr = 3  # entry 3 is not valid
        auditor = InvariantAuditor(strict=False)
        auditor.on_table_processed(table)
        assert not auditor.clean


class TestDaemonIntegration:
    def test_audited_daemon_run_is_clean(self):
        app = TAILBENCH_APPS["moses"]
        from repro.mem import PhysicalMemory
        from repro.virt import Hypervisor
        from repro.workloads.memimage import (
            MemoryImageProfile,
            build_vm_images,
        )

        rng = DeterministicRNG(3, "audited-daemon")
        hypervisor = Hypervisor(physical_memory=PhysicalMemory(64 << 20))
        profile = MemoryImageProfile.for_app(app, 60)
        build_vm_images(hypervisor, profile, 2, rng)
        daemon = KSMDaemon(hypervisor)
        auditor = InvariantAuditor(strict=True)
        auditor.attach_daemon(daemon)
        daemon.run_to_steady_state(max_passes=6)
        assert auditor.clean
        assert auditor.checks["merge-content"] > 0
        assert auditor.checks["rbtree-stable"] > 0
        assert auditor.checks["frame-accounting"] > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_acceptance_server_system_zero_violations(self, mode):
        """Acceptance criterion: zero violations across a full
        ServerSystem run in every mode."""
        scale = SimulationScale(
            pages_per_vm=60, n_vms=2, duration_s=0.04, warmup_s=0.04
        )
        auditor = InvariantAuditor(strict=True)
        system = ServerSystem(
            TAILBENCH_APPS["moses"], mode=mode, scale=scale, seed=11,
            auditor=auditor,
        )
        system.run()
        assert auditor.clean, auditor.summary()
        if mode != "baseline":
            assert auditor.total_checks > 0
        if mode == "pageforge":
            assert auditor.checks["scan-table"] > 0

    def test_recording_mode_keeps_counting(self, two_vm_setup):
        hypervisor, vms = two_vm_setup
        auditor = InvariantAuditor(strict=False, max_recorded=1)
        auditor._fail("demo", "first")
        auditor._fail("demo", "second")
        assert len(auditor.violations) == 1  # capped
        assert auditor.checks["demo"] == 2
        assert not auditor.clean
