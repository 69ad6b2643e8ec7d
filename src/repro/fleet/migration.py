"""VM live migration between fleet hosts.

A migration moves a VM's *page contents* — merge state never travels.
On the source, the VM's mappings are torn down (shared frames lose one
sharer, private frames free) and the merge machinery forgets the VM:
checksum/working-set entries drop, pass-queue candidates for the VM are
cancelled, and tree nodes whose backing frame died are pruned.  On the
destination the pages arrive as ordinary private, mergeable memory and
the destination's own merger re-discovers duplicates on its next scan
passes — exactly how KSM behaves across a real live migration (merged
pages are broken by the copy; MADV_MERGEABLE re-applies on the target).

Every step is auditable: pass an
:class:`~repro.verify.invariants.InvariantAuditor` and the migration
re-checks frame accounting, rbtree validity, and Scan-Table
well-formedness on *both* hosts after teardown and after rebuild, plus
byte-exact content equality between the captured and landed pages.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "MigrationReport",
    "VMImagePayload",
    "capture_vm",
    "migrate_vm",
]


@dataclass
class VMImagePayload:
    """A VM's pages serialised for transfer: the migration wire format.

    ``pages`` carries ``(gpn, content_bytes, mergeable, category)`` —
    guest-visible state only.  PPNs, CoW flags, sharer counts, and tree
    membership deliberately do not travel: they are host-local merge
    state and must be rebuilt, not copied.
    """

    name: str
    source_vm_id: int
    pages: List[Tuple[int, bytes, bool, str]]

    @property
    def n_pages(self):
        return len(self.pages)

    @property
    def n_bytes(self):
        return sum(len(content) for _g, content, _m, _c in self.pages)


def capture_vm(hypervisor, vm_id):
    """Serialise a VM's guest-visible pages (the pre-copy phase)."""
    vm = hypervisor.vms[vm_id]
    pages = []
    for mapping in vm.mappings():
        frame = hypervisor.memory.frame(mapping.ppn)
        pages.append((
            mapping.gpn,
            frame.data.tobytes(),
            bool(mapping.mergeable),
            mapping.category,
        ))
    return VMImagePayload(name=vm.name, source_vm_id=vm_id, pages=pages)


@dataclass
class MigrationReport:
    """What one migration did, with the audit verdicts."""

    source_vm_id: int
    dest_vm_id: int
    pages_moved: int
    bytes_moved: int
    src_footprint_before: int
    src_footprint_after: int
    dest_footprint_before: int
    dest_footprint_after: int
    dest_merges: int = 0
    content_intact: bool = True
    audits_clean: bool = True
    details: Dict[str, object] = field(default_factory=dict)


def migrate_vm(src, dest, vm_id, auditor=None, rescan=True,
               max_passes=8):
    """Live-migrate ``vm_id`` from ``src`` to ``dest`` (FunctionalHosts).

    Returns a :class:`MigrationReport`; the destination assigns its own
    VM id (``report.dest_vm_id``), as a real target hypervisor would.
    With ``rescan=False`` the pages land but the destination merger is
    not driven — the caller owns re-convergence (used by tests that
    audit the intermediate state).
    """
    payload = capture_vm(src.hypervisor, vm_id)
    expected = {
        gpn: content for gpn, content, _m, _c in payload.pages
    }
    src_before = src.footprint()
    dest_before = dest.footprint()
    dest_merges_before = dest.hypervisor.stats.merges

    # Source teardown: unmap every page, then make the merge machinery
    # forget the VM.  Order matters — pruning walks the trees, and a
    # stale node is only detectable after its frame died.
    src.hypervisor.destroy_vm(src.hypervisor.vms[vm_id])
    if src.bundle is not None:
        src.bundle.scanner.forget_vm(vm_id)
    if auditor is not None:
        src.audit(auditor)

    # Destination rebuild: pages land private and mergeable; the
    # destination's own scanner re-merges duplicates.
    new_vm = dest.land(payload)
    if rescan:
        dest.converge(max_passes=max_passes)
    if auditor is not None:
        dest.audit(auditor)

    # Post-copy verification: every page's bytes must have survived the
    # trip (reads go through the destination's live mappings, so merged
    # landings are covered too).
    intact = True
    for gpn, content in expected.items():
        landed = bytes(dest.hypervisor.guest_read(new_vm, gpn))
        if landed != content:
            intact = False
            break

    return MigrationReport(
        source_vm_id=vm_id,
        dest_vm_id=new_vm.vm_id,
        pages_moved=payload.n_pages,
        bytes_moved=payload.n_bytes,
        src_footprint_before=src_before,
        src_footprint_after=src.footprint(),
        dest_footprint_before=dest_before,
        dest_footprint_after=dest.footprint(),
        dest_merges=dest.hypervisor.stats.merges - dest_merges_before,
        content_intact=intact,
        audits_clean=auditor.clean if auditor is not None else True,
    )
