"""The hypervisor: allocation, soft faults, merging, copy-on-write.

Responsibilities mirror Section 2's description of KVM-style merging:

* first-touch allocation zeroes the frame (information-leak avoidance);
* ``merge_pages`` points two guest pages at one frame, write-protects
  them (CoW), and frees the duplicate frame;
* a guest write to a CoW page triggers ``break_cow`` — a fresh frame is
  allocated, contents copied, and the writer remapped, restoring the
  pre-merge state of Figure 1(a) for that page.
"""

from collections import defaultdict
from dataclasses import dataclass


from repro.common.units import PAGE_BYTES
from repro.mem.physmem import PhysicalMemory
from repro.virt.vm import VirtualMachine


class MergeRollback(Exception):
    """Raised when a merge is aborted by the final racing-write check."""


@dataclass
class HypervisorStats:
    """Merging and CoW activity counters."""

    soft_faults: int = 0
    merges: int = 0
    zero_page_merges: int = 0
    cow_breaks: int = 0
    merge_rollbacks: int = 0
    pages_freed_by_merging: int = 0
    unmerges: int = 0


class Hypervisor:
    """Owns physical memory and every VM's guest page table."""

    def __init__(self, physical_memory=None, capacity_bytes=None, bus=None):
        if physical_memory is None:
            if capacity_bytes is None:
                raise ValueError("need physical_memory or capacity_bytes")
            physical_memory = PhysicalMemory(capacity_bytes)
        self.memory = physical_memory
        self.bus = bus  # optional SnoopBus for invalidations on remap
        self.vms = {}
        self._next_vm_id = 0
        self.stats = HypervisorStats()
        # Reverse map: ppn -> set of (vm_id, gpn) sharing that frame.
        self._rmap = defaultdict(set)
        # Frames currently write-protected (merged / CoW).
        self._cow_ppns = set()

    # VM lifecycle ----------------------------------------------------------------

    def create_vm(self, name="vm", pinned_core=None):
        vm_id = self._next_vm_id
        self._next_vm_id += 1
        vm = VirtualMachine(vm_id, name=name)
        vm.pinned_core = pinned_core
        self.vms[vm_id] = vm
        return vm

    def vm(self, vm_id):
        return self.vms[vm_id]

    def destroy_vm(self, vm):
        """Tear a VM down, releasing every frame it references.

        Frames shared with other VMs survive (their refcount drops by
        one); private frames return to the free pool.  The consolidation
        experiments use this to model VM churn.
        """
        if vm.vm_id not in self.vms:
            raise KeyError(f"VM {vm.vm_id} is not registered")
        for mapping in list(vm.mappings()):
            self._rmap[mapping.ppn].discard((vm.vm_id, mapping.gpn))
            freed = self.memory.decref(mapping.ppn)
            if freed:
                self._cow_ppns.discard(mapping.ppn)
            vm.unmap(mapping.gpn)
        del self.vms[vm.vm_id]

    def unmerge_page(self, vm, gpn):
        """Give ``vm`` a private copy of a merged page (madvise
        UNMERGEABLE semantics for a single page)."""
        mapping = vm.mapping(gpn)
        if self.memory.frame(mapping.ppn).refcount > 1:
            mapping = self.break_cow(vm, gpn)
        mapping.mergeable = False
        return mapping

    # Allocation / faults -----------------------------------------------------------

    def touch_page(self, vm, gpn, category="unclassified", mergeable=False):
        """First guest touch of ``gpn``: soft fault -> zeroed frame."""
        if vm.is_mapped(gpn):
            return vm.mapping(gpn)
        frame = self.memory.allocate()
        frame.zero()
        self.stats.soft_faults += 1
        mapping = vm.map_page(
            gpn, frame.ppn, mergeable=mergeable, category=category
        )
        self._rmap[frame.ppn].add((vm.vm_id, gpn))
        return mapping

    def populate_page(self, vm, gpn, data, category="unclassified",
                      mergeable=False):
        """Touch then fill a guest page with ``data``."""
        mapping = self.touch_page(
            vm, gpn, category=category, mergeable=mergeable
        )
        self.memory.frame(mapping.ppn).fill(data)
        return mapping

    # Reads / writes ------------------------------------------------------------------

    def guest_read(self, vm, gpn, offset=0, length=PAGE_BYTES):
        mapping = vm.mapping(gpn)
        frame = self.memory.frame(mapping.ppn)
        return frame.data[offset : offset + length]

    def guest_write(self, vm, gpn, offset, payload):
        """Guest write; breaks CoW first if the frame is shared."""
        mapping = vm.mapping(gpn)
        if mapping.cow or mapping.ppn in self._cow_ppns:
            mapping = self.break_cow(vm, gpn)
        frame = self.memory.frame(mapping.ppn)
        frame.write_bytes(offset, payload)
        return mapping

    def break_cow(self, vm, gpn):
        """Give the writer a private copy of a shared frame (Figure 1)."""
        mapping = vm.mapping(gpn)
        old_ppn = mapping.ppn
        old_frame = self.memory.frame(old_ppn)
        if old_frame.refcount == 1:
            # Sole owner: simply drop protection.
            mapping.cow = False
            self._cow_ppns.discard(old_ppn)
            return mapping
        new_frame = self.memory.allocate()
        new_frame.fill(old_frame.data)
        self._rmap[old_ppn].discard((vm.vm_id, gpn))
        self.memory.decref(old_ppn)
        mapping = vm.remap(gpn, new_frame.ppn, cow=False)
        self._rmap[new_frame.ppn].add((vm.vm_id, gpn))
        if self.bus is not None:
            self.bus.invalidate_page_everywhere(old_ppn)
        self.stats.cow_breaks += 1
        # Remaining sharers stay write-protected: even a now-sole owner
        # is still referenced by KSM's stable tree, so protection holds
        # until that owner itself writes.
        return mapping

    # Merging ---------------------------------------------------------------------------

    def merge_pages(self, winner_vm, winner_gpn, loser_vm, loser_gpn,
                    verify=True):
        """Merge ``loser``'s page into ``winner``'s frame.

        With ``verify=True`` the pages are re-compared byte-for-byte under
        write protection before the mapping flips — KSM's guard against
        racing writes (Section 2.1).  Raises :class:`MergeRollback` if the
        contents diverged.
        """
        winner_map = winner_vm.mapping(winner_gpn)
        loser_map = loser_vm.mapping(loser_gpn)
        if winner_map.ppn == loser_map.ppn:
            return winner_map.ppn  # already merged
        winner_frame = self.memory.frame(winner_map.ppn)
        loser_frame = self.memory.frame(loser_map.ppn)

        # Write-protect both sides, then do the final comparison.
        self._cow_ppns.add(winner_map.ppn)
        self._cow_ppns.add(loser_map.ppn)
        if verify and not winner_frame.same_contents(loser_frame):
            self._cow_ppns.discard(loser_map.ppn)
            if winner_frame.refcount == 1:
                self._cow_ppns.discard(winner_map.ppn)
            self.stats.merge_rollbacks += 1
            raise MergeRollback(
                f"pages diverged during merge: VM{winner_vm.vm_id}:{winner_gpn} "
                f"vs VM{loser_vm.vm_id}:{loser_gpn}"
            )

        old_ppn = loser_map.ppn
        self.memory.incref(winner_map.ppn)
        self._rmap[old_ppn].discard((loser_vm.vm_id, loser_gpn))
        freed = self.memory.decref(old_ppn)
        loser_vm.remap(loser_gpn, winner_map.ppn, cow=True)
        winner_map.cow = True
        self._rmap[winner_map.ppn].add((loser_vm.vm_id, loser_gpn))
        if freed:
            self._cow_ppns.discard(old_ppn)
            self.stats.pages_freed_by_merging += 1
        if self.bus is not None:
            self.bus.invalidate_page_everywhere(old_ppn)
        self.stats.merges += 1
        if winner_frame.is_zero():
            self.stats.zero_page_merges += 1
        return winner_map.ppn

    def sharers(self, ppn):
        """The (vm_id, gpn) pairs currently mapping ``ppn``."""
        return set(self._rmap.get(ppn, ()))

    def is_cow_protected(self, ppn):
        return ppn in self._cow_ppns

    # Footprint reporting (Figure 7) -----------------------------------------------------

    def footprint_pages(self):
        """Live physical frames (the Fig. 7 metric)."""
        return self.memory.allocated_frames

    def guest_pages(self):
        """Total guest-mapped pages across VMs (pre-merge footprint)."""
        return sum(vm.n_pages for vm in self.vms.values())

    def footprint_by_category(self):
        """Physical frames grouped by the workload category of sharers.

        A frame shared by pages of different categories is attributed to
        the first category alphabetically (ties are rare: categories are
        assigned per content class).
        """
        result = defaultdict(int)
        for frame in self.memory.frames():
            cats = set()
            for vm_id, gpn in self._rmap.get(frame.ppn, ()):
                cats.add(self.vms[vm_id].mapping(gpn).category)
            if not cats:
                cats = {"unmapped"}
            result[sorted(cats)[0]] += 1
        return dict(result)

    def verify_consistency(self):
        """Invariant check: rmap, refcounts, and page tables agree."""
        seen = defaultdict(set)
        for vm in self.vms.values():
            for mapping in vm.mappings():
                seen[mapping.ppn].add((vm.vm_id, mapping.gpn))
        for ppn, sharers in seen.items():
            frame = self.memory.frame(ppn)
            if frame.refcount != len(sharers):
                raise AssertionError(
                    f"PPN {ppn}: refcount {frame.refcount} != "
                    f"{len(sharers)} sharers"
                )
            if self._rmap.get(ppn, set()) != sharers:
                raise AssertionError(f"PPN {ppn}: rmap out of sync")
        for ppn in self.memory.ppns():
            if ppn not in seen:
                raise AssertionError(f"PPN {ppn} allocated but unmapped")
        return True
