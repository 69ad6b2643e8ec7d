"""Tests for the UKSM variant (Section 7.2)."""


from repro.common.units import PAGE_BYTES
from repro.ksm.uksm import UKSMConfig, UKSMDaemon, sample_hash


def build_mixed_world(hypervisor, rng, n_vms=3):
    """VMs with shared pages where only *some* are madvised mergeable."""
    shared = [rng.bytes_array(PAGE_BYTES) for _ in range(4)]
    for i in range(n_vms):
        vm = hypervisor.create_vm(f"vm{i}")
        for gpn, content in enumerate(shared):
            # Only the first two pages opt in to KSM-style merging.
            hypervisor.populate_page(
                vm, gpn, content, mergeable=(gpn < 2)
            )
    return shared


class TestSampleHash:
    def test_deterministic(self, rng):
        page = rng.bytes_array(PAGE_BYTES)
        assert sample_hash(page) == sample_hash(page.copy())

    def test_whole_page_coverage(self, rng):
        """A change at the very end of the page is visible (unlike
        KSM's first-1KB jhash window)."""
        page = rng.bytes_array(PAGE_BYTES)
        before = sample_hash(page, stride=128)
        changed = page.copy()
        changed[3968] ^= 0xFF  # word 992: the last sampled word
        assert sample_hash(changed, stride=128) != before

    def test_stride_misses_between_samples(self, rng):
        page = rng.bytes_array(PAGE_BYTES)
        before = sample_hash(page, stride=128)
        changed = page.copy()
        changed[5] ^= 0xFF  # word 1 is between samples for stride>=8
        assert sample_hash(changed, stride=128) == before

    def test_differs_from_jhash_policy(self, rng):
        """Changes beyond 1 KB: invisible to KSM's checksum, visible to
        UKSM's strided hash."""
        from repro.ksm.jhash import page_checksum

        page = rng.bytes_array(PAGE_BYTES)
        changed = page.copy()
        changed[2048] ^= 0xFF
        assert page_checksum(changed) == page_checksum(page)
        assert sample_hash(changed) != sample_hash(page)


class TestWholeSystemScan:
    def test_merges_non_madvised_pages(self, hypervisor, rng):
        build_mixed_world(hypervisor, rng)
        daemon = UKSMDaemon(hypervisor)
        daemon.run_to_steady_state(max_passes=5)
        # All four shared contents merged, including the two that never
        # called madvise: 4 frames total.
        assert hypervisor.footprint_pages() == 4
        hypervisor.verify_consistency()

    def test_ksm_by_contrast_respects_madvise(self, hypervisor, rng):
        from repro.common.config import KSMConfig
        from repro.ksm import KSMDaemon

        build_mixed_world(hypervisor, rng)
        daemon = KSMDaemon(hypervisor, KSMConfig(pages_to_scan=500))
        daemon.run_to_steady_state(max_passes=5)
        # Only the madvised half merged: 2 shared frames + 2x3 private.
        assert hypervisor.footprint_pages() == 2 + 6

    def test_madvise_flag_restored(self, hypervisor, rng):
        build_mixed_world(hypervisor, rng)
        daemon = UKSMDaemon(hypervisor)
        daemon.run_to_steady_state(max_passes=5)
        vm = hypervisor.vms[0]
        assert vm.mapping(0).mergeable is True
        assert vm.mapping(2).mergeable is False


class TestBudgetGovernor:
    def test_quota_scales_with_budget(self, hypervisor, rng):
        build_mixed_world(hypervisor, rng)
        lo = UKSMDaemon(hypervisor, UKSMConfig(cpu_budget_frac=0.05))
        hi = UKSMDaemon(hypervisor, UKSMConfig(cpu_budget_frac=0.50))
        assert hi.pages_for_interval(0.02) >= lo.pages_for_interval(0.02)

    def test_quota_bounded(self, hypervisor, rng):
        build_mixed_world(hypervisor, rng)
        cfg = UKSMConfig(cpu_budget_frac=0.9, min_pages_per_interval=16,
                         max_pages_per_interval=100)
        daemon = UKSMDaemon(hypervisor, cfg,
                            cycles_per_page_estimate=1.0)
        assert daemon.pages_for_interval(1.0) == 100
        daemon.cycles_per_page_estimate = 1e12
        assert daemon.pages_for_interval(1.0) == 16

    def test_cost_estimate_adapts(self, hypervisor, rng):
        build_mixed_world(hypervisor, rng)
        daemon = UKSMDaemon(hypervisor, cycles_per_page_estimate=1000.0)
        daemon.observe_interval_cost(10, 1_000_000)  # 100k cycles/page
        assert daemon.cycles_per_page_estimate > 1000.0

    def test_zero_scan_does_not_update_estimate(self, hypervisor, rng):
        daemon = UKSMDaemon(hypervisor)
        before = daemon.cycles_per_page_estimate
        daemon.observe_interval_cost(0, 12345)
        assert daemon.cycles_per_page_estimate == before
