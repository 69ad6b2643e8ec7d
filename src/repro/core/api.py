"""The five-function OS interface to PageForge (Table 1).

============  =======================  ==========================================
Function      Operands                 Semantics
============  =======================  ==========================================
insert_PPN    index, PPN, Less, More   Fill an Other Pages entry
insert_PFE    PPN, L, Ptr              Fill the PFE entry (new candidate)
update_PFE    L, Ptr                   Re-arm after a refill (same candidate)
get_PFE_info  —                        Hash key, Ptr, and the S/D/H bits
update_ECC_offset  page offsets        Reconfigure ECC hash-key offsets
============  =======================  ==========================================
"""

from dataclasses import dataclass
from typing import Optional

from repro.core.scan_table import INVALID_INDEX


@dataclass(frozen=True)
class PFEInfo:
    """What ``get_PFE_info`` returns to the OS."""

    hash_key: Optional[int]
    ptr: int
    scanned: bool
    duplicate: bool
    hash_ready: bool


class PageForgeAPI:
    """OS-visible wrapper over one PageForge engine."""

    def __init__(self, engine):
        self.engine = engine
        self.table = engine.table

    def insert_PPN(self, index, ppn, less=INVALID_INDEX, more=INVALID_INDEX):
        """Fill the Other Pages entry at ``index`` (Table 1, row 1)."""
        entry = self.table.entries[index]
        entry.valid = True
        entry.ppn = int(ppn)
        entry.less = int(less)
        entry.more = int(more)

    def insert_PFE(self, ppn, last_refill=False, ptr=0):
        """Install a new candidate page and arm the hardware."""
        self.engine.new_candidate()
        pfe = self.table.pfe
        pfe.clear()
        pfe.valid = True
        pfe.ppn = int(ppn)
        pfe.ptr = int(ptr)
        pfe.last_refill = bool(last_refill)

    def update_PFE(self, last_refill, ptr):
        """Re-arm after the OS refilled the Other Pages entries.

        The candidate (and its partially assembled hash key) carries over;
        only the traversal state restarts.
        """
        pfe = self.table.pfe
        if not pfe.valid:
            raise RuntimeError("update_PFE with no candidate installed")
        pfe.ptr = int(ptr)
        pfe.last_refill = bool(last_refill)
        pfe.scanned = False
        pfe.duplicate = False

    def get_PFE_info(self):
        """Read back the hash key, Ptr, and the S, D, H bits."""
        pfe = self.table.pfe
        return PFEInfo(
            hash_key=pfe.hash_key if pfe.hash_ready else None,
            ptr=pfe.ptr,
            scanned=pfe.scanned,
            duplicate=pfe.duplicate,
            hash_ready=pfe.hash_ready,
        )

    def update_ECC_offset(self, line_offsets):
        """Reconfigure the per-section hash-key line offsets."""
        self.engine.set_hash_offsets(line_offsets)

    def clear_entries(self):
        """Invalidate the Other Pages array before a refill."""
        self.table.clear_entries()

    def fill_entries(self, rows):
        """One refill: ``insert_PPN(i, ppn, less, more)`` for the i-th of
        ``rows``, then invalidate every entry after them.

        The table ends as ``clear_entries`` followed by those
        ``insert_PPN`` calls would leave it, with each entry written once.
        """
        entries = self.table.entries
        if len(rows) > len(entries):
            raise ValueError(
                f"{len(rows)} rows for {len(entries)} Other Pages entries"
            )
        for entry, (ppn, less, more) in zip(entries, rows):
            entry.valid = True
            entry.ppn = int(ppn)
            entry.less = int(less)
            entry.more = int(more)
        for entry in entries[len(rows):]:
            entry.clear()

    def trigger(self, time_seconds=0.0):
        """Start the hardware; returns the cycles it ran for."""
        return self.engine.process_table(time_seconds)
