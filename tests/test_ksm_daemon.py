"""Tests for the KSM daemon (Algorithm 1)."""

import numpy as np

from repro.common.config import KSMConfig
from repro.common.units import PAGE_BYTES
from repro.ksm import KSMDaemon


def build_workload(hypervisor, rng, n_vms=3, shared=4, unique=3, zeros=2):
    """VMs with shared, unique, and zero pages; returns the VM list."""
    shared_contents = [rng.bytes_array(PAGE_BYTES) for _ in range(shared)]
    vms = []
    for i in range(n_vms):
        vm = hypervisor.create_vm(f"vm{i}")
        gpn = 0
        for content in shared_contents:
            hypervisor.populate_page(vm, gpn, content,
                                     category="mergeable", mergeable=True)
            gpn += 1
        for _ in range(unique):
            hypervisor.populate_page(vm, gpn, rng.bytes_array(PAGE_BYTES),
                                     category="unmergeable", mergeable=True)
            gpn += 1
        for _ in range(zeros):
            hypervisor.touch_page(vm, gpn, category="zero", mergeable=True)
            gpn += 1
        vms.append(vm)
    return vms


class TestMergingBehaviour:
    def test_reaches_expected_footprint(self, hypervisor, rng):
        build_workload(hypervisor, rng)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500))
        daemon.run_to_steady_state()
        # 4 shared contents -> 4 frames; 9 unique; all zeros -> 1 frame.
        assert hypervisor.footprint_pages() == 4 + 9 + 1
        hypervisor.verify_consistency()

    def test_zero_pages_merge_to_single_frame(self, hypervisor, rng):
        build_workload(hypervisor, rng, shared=0, unique=0, zeros=3)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500))
        daemon.run_to_steady_state()
        assert hypervisor.footprint_pages() == 1

    def test_merged_pages_are_cow(self, hypervisor, rng):
        vms = build_workload(hypervisor, rng)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500))
        daemon.run_to_steady_state()
        for vm in vms:
            mapping = vm.mapping(0)  # a shared page
            assert mapping.cow
            assert hypervisor.memory.frame(mapping.ppn).refcount == len(vms)

    def test_unique_pages_unmerged(self, hypervisor, rng):
        vms = build_workload(hypervisor, rng)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500))
        daemon.run_to_steady_state()
        # Unique pages (gpns 4..6) keep private frames.
        ppns = {vm.translate(5) for vm in vms}
        assert len(ppns) == len(vms)

    def test_first_pass_only_inserts(self, hypervisor, rng):
        """Pages need two sightings (stable hash) before unstable-tree
        insertion, so a single partial pass merges nothing."""
        build_workload(hypervisor, rng)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500))
        total = hypervisor.guest_pages()
        interval = daemon.scan_pages(total)  # exactly one pass
        assert interval.merges == 0
        assert interval.first_seen == interval.pages_scanned

    def test_second_pass_merges(self, hypervisor, rng):
        build_workload(hypervisor, rng)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500))
        total = hypervisor.guest_pages()
        daemon.scan_pages(total)
        interval = daemon.scan_pages(total)
        assert interval.merges > 0
        assert interval.unstable_matches > 0

    def test_unstable_tree_reset_each_pass(self, hypervisor, rng):
        build_workload(hypervisor, rng)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500))
        total = hypervisor.guest_pages()
        daemon.scan_pages(total)
        assert len(daemon.unstable_tree) == 0  # destroyed at pass end

    def test_changed_page_skipped(self, hypervisor, rng):
        vms = build_workload(hypervisor, rng, shared=1, unique=0, zeros=0)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500))
        total = hypervisor.guest_pages()
        daemon.scan_pages(total)
        # Modify one copy between passes: its checksum mismatches, so it
        # is dropped for that pass.
        hypervisor.guest_write(vms[0], 0, 10, np.array([1], dtype=np.uint8))
        interval = daemon.scan_pages(total)
        assert interval.pages_changed >= 1

    def test_stable_match_after_steady_state(self, hypervisor, rng):
        """A CoW-broken page whose content reverts re-merges via the
        stable tree."""
        vms = build_workload(hypervisor, rng, shared=1, unique=0, zeros=0)
        original = hypervisor.guest_read(vms[0], 0).copy()
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500))
        daemon.run_to_steady_state()
        assert hypervisor.footprint_pages() == 1
        # Break one copy, then restore the original bytes.
        hypervisor.guest_write(vms[0], 0, 0, np.array([9], dtype=np.uint8))
        assert hypervisor.footprint_pages() == 2
        hypervisor.guest_write(vms[0], 0, 0, original[:1])
        interval = daemon.scan_pages(hypervisor.guest_pages() * 3)
        assert hypervisor.footprint_pages() == 1
        assert daemon.stats.stable_matches >= 1

    def test_no_mergeable_pages_is_noop(self, hypervisor, rng):
        vm = hypervisor.create_vm()
        hypervisor.populate_page(vm, 0, rng.bytes_array(PAGE_BYTES),
                                 mergeable=False)
        daemon = KSMDaemon(hypervisor)
        interval = daemon.scan_pages(100)
        assert interval.pages_scanned == 0

    def test_pass_history_recorded(self, hypervisor, rng):
        build_workload(hypervisor, rng)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500))
        daemon.run_to_steady_state()
        assert daemon.pass_history
        assert daemon.pass_history[-1].footprint_pages == \
            hypervisor.footprint_pages()

    def test_work_interval_respects_budget(self, hypervisor, rng):
        build_workload(hypervisor, rng, n_vms=4, shared=6, unique=6)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=5))
        interval = daemon.scan_pages()
        assert interval.pages_scanned <= 5


class TestHashStability:
    def test_checksum_match_counted(self, hypervisor, rng):
        build_workload(hypervisor, rng, shared=0, unique=2, zeros=0)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500))
        total = hypervisor.guest_pages()
        daemon.scan_pages(total)
        interval = daemon.scan_pages(total)
        # Unique unchanged pages: checksum matches, unstable insert.
        assert interval.checksum_matches == interval.pages_scanned

    def test_custom_checksum_fn(self, hypervisor, rng):
        calls = []

        def checksum(frame):
            calls.append(frame.ppn)
            return 7  # constant: everything looks stable

        build_workload(hypervisor, rng, shared=1, unique=1, zeros=0)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500),
                           checksum_fn=checksum, checksum_bytes=256)
        daemon.run_to_steady_state()
        assert calls  # the injected hash was used
        assert hypervisor.footprint_pages() < hypervisor.guest_pages()


class TestCostSink:
    def test_sink_sees_walks_and_hashes(self, hypervisor, rng):
        events = []

        class Sink:
            def on_walk(self, ppn, outcome):
                events.append(("walk", outcome.comparisons))

            def on_hash_bytes(self, ppn, n):
                events.append(("hash", n))

            def on_merge_verify(self, a, b, n):
                events.append(("verify", n))

        build_workload(hypervisor, rng)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500),
                           cost_sink=Sink())
        daemon.run_to_steady_state()
        kinds = {kind for kind, _ in events}
        assert kinds == {"walk", "hash", "verify"}
