"""Tests for repro.virt: VMs, hypervisor, merging, copy-on-write."""

import numpy as np
import pytest

from repro.common.units import PAGE_BYTES
from repro.virt import MergeRollback
from repro.virt.vm import VirtualMachine


class TestVirtualMachine:
    def test_map_translate(self):
        vm = VirtualMachine(0)
        vm.map_page(3, 42)
        assert vm.translate(3) == 42
        assert vm.is_mapped(3)
        assert not vm.is_mapped(4)

    def test_double_map_rejected(self):
        vm = VirtualMachine(0)
        vm.map_page(1, 10)
        with pytest.raises(ValueError):
            vm.map_page(1, 11)

    def test_unmapped_access_raises(self):
        vm = VirtualMachine(0)
        with pytest.raises(KeyError):
            vm.translate(9)

    def test_mappings_sorted(self):
        vm = VirtualMachine(0)
        vm.map_page(5, 1)
        vm.map_page(2, 2)
        assert [m.gpn for m in vm.mappings()] == [2, 5]


class TestHypervisorAllocation:
    def test_touch_zeroes(self, hypervisor):
        vm = hypervisor.create_vm()
        mapping = hypervisor.touch_page(vm, 0)
        frame = hypervisor.memory.frame(mapping.ppn)
        assert frame.is_zero()
        assert hypervisor.stats.soft_faults == 1

    def test_touch_idempotent(self, hypervisor):
        vm = hypervisor.create_vm()
        m1 = hypervisor.touch_page(vm, 0)
        m2 = hypervisor.touch_page(vm, 0)
        assert m1.ppn == m2.ppn
        assert hypervisor.stats.soft_faults == 1

    def test_populate(self, hypervisor, rng):
        vm = hypervisor.create_vm()
        data = rng.bytes_array(PAGE_BYTES)
        mapping = hypervisor.populate_page(vm, 0, data)
        assert np.array_equal(hypervisor.guest_read(vm, 0), data)

    def test_guest_read_window(self, hypervisor, rng):
        vm = hypervisor.create_vm()
        data = rng.bytes_array(PAGE_BYTES)
        hypervisor.populate_page(vm, 0, data)
        window = hypervisor.guest_read(vm, 0, offset=100, length=16)
        assert np.array_equal(window, data[100:116])


class TestMerging:
    def test_merge_shares_frame(self, two_vm_setup):
        hyp, (vm0, vm1) = two_vm_setup
        ppn = hyp.merge_pages(vm0, 0, vm1, 0)
        assert vm0.translate(0) == vm1.translate(0) == ppn
        assert hyp.memory.frame(ppn).refcount == 2
        assert hyp.stats.pages_freed_by_merging == 1
        hyp.verify_consistency()

    def test_merge_marks_cow(self, two_vm_setup):
        hyp, (vm0, vm1) = two_vm_setup
        ppn = hyp.merge_pages(vm0, 0, vm1, 0)
        assert vm0.mapping(0).cow
        assert vm1.mapping(0).cow
        assert hyp.is_cow_protected(ppn)

    def test_merge_different_contents_rolls_back(self, two_vm_setup):
        hyp, (vm0, vm1) = two_vm_setup
        with pytest.raises(MergeRollback):
            hyp.merge_pages(vm0, 0, vm1, 1)  # shared vs unique
        assert hyp.stats.merge_rollbacks == 1
        hyp.verify_consistency()

    def test_merge_already_merged_is_noop(self, two_vm_setup):
        hyp, (vm0, vm1) = two_vm_setup
        before = hyp.footprint_pages()
        hyp.merge_pages(vm0, 0, vm1, 0)
        after_first = hyp.footprint_pages()
        hyp.merge_pages(vm0, 0, vm1, 0)
        assert hyp.footprint_pages() == after_first == before - 1

    def test_zero_page_merge_counted(self, two_vm_setup):
        hyp, (vm0, vm1) = two_vm_setup
        hyp.merge_pages(vm0, 2, vm1, 2)
        assert hyp.stats.zero_page_merges == 1

    def test_sharers_tracking(self, two_vm_setup):
        hyp, (vm0, vm1) = two_vm_setup
        ppn = hyp.merge_pages(vm0, 0, vm1, 0)
        assert hyp.sharers(ppn) == {(vm0.vm_id, 0), (vm1.vm_id, 0)}


class TestCopyOnWrite:
    def test_write_to_merged_breaks_cow(self, two_vm_setup):
        hyp, (vm0, vm1) = two_vm_setup
        hyp.merge_pages(vm0, 0, vm1, 0)
        before = hyp.footprint_pages()
        payload = np.array([9, 9, 9], dtype=np.uint8)
        hyp.guest_write(vm1, 0, 10, payload)
        assert hyp.footprint_pages() == before + 1
        assert vm0.translate(0) != vm1.translate(0)
        # Writer sees its write; the other VM sees original data.
        assert hyp.guest_read(vm1, 0, 10, 3).tolist() == [9, 9, 9]
        assert hyp.guest_read(vm0, 0, 10, 3).tolist() != [9, 9, 9]
        assert hyp.stats.cow_breaks == 1
        hyp.verify_consistency()

    def test_write_to_private_page_no_cow(self, two_vm_setup):
        hyp, (vm0, _vm1) = two_vm_setup
        before = hyp.footprint_pages()
        hyp.guest_write(vm0, 1, 0, np.array([1], dtype=np.uint8))
        assert hyp.footprint_pages() == before
        assert hyp.stats.cow_breaks == 0

    def test_three_way_merge_and_break(self, hypervisor, rng):
        hyp = hypervisor
        content = rng.bytes_array(PAGE_BYTES)
        vms = [hyp.create_vm(f"v{i}") for i in range(3)]
        for vm in vms:
            hyp.populate_page(vm, 0, content, mergeable=True)
        hyp.merge_pages(vms[0], 0, vms[1], 0)
        hyp.merge_pages(vms[0], 0, vms[2], 0)
        ppn = vms[0].translate(0)
        assert hyp.memory.frame(ppn).refcount == 3
        # One VM writes: only it gets a copy.
        hyp.guest_write(vms[1], 0, 0, np.array([7], dtype=np.uint8))
        assert hyp.memory.frame(ppn).refcount == 2
        assert vms[0].translate(0) == vms[2].translate(0) == ppn
        hyp.verify_consistency()

    def test_sole_owner_write_after_all_others_broke(self, two_vm_setup):
        hyp, (vm0, vm1) = two_vm_setup
        hyp.merge_pages(vm0, 0, vm1, 0)
        hyp.guest_write(vm1, 0, 0, np.array([1], dtype=np.uint8))
        # vm0 is now the sole owner but the frame stays protected until
        # it writes; its write must not allocate another frame.
        before = hyp.footprint_pages()
        hyp.guest_write(vm0, 0, 0, np.array([2], dtype=np.uint8))
        assert hyp.footprint_pages() == before
        hyp.verify_consistency()


class TestFootprintReporting:
    def test_footprint_counts(self, two_vm_setup):
        hyp, (vm0, vm1) = two_vm_setup
        assert hyp.guest_pages() == 6
        assert hyp.footprint_pages() == 6
        hyp.merge_pages(vm0, 0, vm1, 0)
        hyp.merge_pages(vm0, 2, vm1, 2)
        assert hyp.guest_pages() == 6
        assert hyp.footprint_pages() == 4

    def test_footprint_by_category(self, two_vm_setup):
        hyp, (vm0, vm1) = two_vm_setup
        hyp.merge_pages(vm0, 0, vm1, 0)
        by_cat = hyp.footprint_by_category()
        assert by_cat["mergeable"] == 1
        assert by_cat["unmergeable"] == 2
        assert by_cat["zero"] == 2

    def test_consistency_check_detects_corruption(self, two_vm_setup):
        hyp, (vm0, _vm1) = two_vm_setup
        hyp.memory.frame(vm0.translate(0)).refcount += 1  # corrupt
        with pytest.raises(AssertionError):
            hyp.verify_consistency()
