"""A virtual machine: guest page table and mergeable-region registry."""

from dataclasses import dataclass


@dataclass
class GuestMapping:
    """One guest page's mapping state."""

    gpn: int
    ppn: int
    mergeable: bool = False
    cow: bool = False  # write-protected because the frame is shared
    category: str = "unclassified"  # workload tag (Fig. 7 breakdown)


class VirtualMachine:
    """One VM instance: id, name, and its guest-physical address space.

    The guest page table maps guest page numbers (GPNs) to host PPNs.
    ``madvise`` regions mark GPNs as candidates for same-page merging, as
    KVM guests do with ``MADV_MERGEABLE`` (Section 2.1).
    """

    def __init__(self, vm_id, name="vm"):
        self.vm_id = int(vm_id)
        self.name = name
        self._table = {}  # gpn -> GuestMapping
        # Sorted GPNs that were mergeable when last enumerated; rebuilt
        # lazily after map/unmap/madvise so per-pass queue building does
        # not re-sort the whole page table (see mergeable_mappings).
        self._mergeable_gpns = None
        self.pinned_core = None

    # Page table -----------------------------------------------------------------

    def map_page(self, gpn, ppn, mergeable=False, category="unclassified"):
        if gpn in self._table:
            raise ValueError(f"GPN {gpn} already mapped in VM {self.vm_id}")
        self._table[gpn] = GuestMapping(
            gpn=gpn, ppn=ppn, mergeable=mergeable, category=category
        )
        self._mergeable_gpns = None
        return self._table[gpn]

    def remap(self, gpn, ppn, cow):
        mapping = self.mapping(gpn)
        mapping.ppn = ppn
        mapping.cow = cow
        return mapping

    def unmap(self, gpn):
        self._mergeable_gpns = None
        return self._table.pop(gpn)

    def mapping(self, gpn):
        try:
            return self._table[gpn]
        except KeyError:
            raise KeyError(
                f"GPN {gpn} is not mapped in VM {self.vm_id}"
            ) from None

    def is_mapped(self, gpn):
        return gpn in self._table

    def lookup(self, gpn):
        """The mapping for ``gpn``, or None if unmapped.

        One dict probe; the scan hot paths use this instead of the
        ``is_mapped`` + ``mapping`` pair.
        """
        return self._table.get(gpn)

    def translate(self, gpn):
        """GPN -> PPN."""
        return self.mapping(gpn).ppn

    # Iteration ------------------------------------------------------------------

    def mappings(self):
        """All mappings, in GPN order."""
        return [self._table[g] for g in sorted(self._table)]

    def mergeable_mappings(self):
        """Mergeable mappings in GPN order.

        The sorted GPN list is cached across calls — the KSM daemon
        enumerates it at every pass boundary, and re-sorting the full
        page table each time dominates pass-turnaround cost.  Entries
        whose flag was cleared in place (poisoning, reclaim) are filtered
        on the way out.
        """
        gpns = self._mergeable_gpns
        if gpns is None:
            gpns = self._mergeable_gpns = sorted(
                g for g, m in self._table.items() if m.mergeable
            )
        table_get = self._table.get
        out = []
        append = out.append
        for gpn in gpns:
            m = table_get(gpn)
            if m is not None and m.mergeable:
                append(m)
        return out

    @property
    def n_pages(self):
        return len(self._table)

    def __repr__(self):
        return (
            f"VirtualMachine(id={self.vm_id}, name={self.name!r}, "
            f"pages={self.n_pages})"
        )
