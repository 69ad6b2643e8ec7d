"""The Scan Table (Figure 2b).

One *PFE* (PageForge Entry) holds the candidate page: Valid bit, PPN, the
hash key being assembled, the control bits Scanned (S), Duplicate (D),
Hash-Key-Ready (H), Last-Refill (L), and ``Ptr`` — the index of the Other
Pages entry currently being compared.  Each of the 31 *Other Pages*
entries holds a Valid bit, a PPN, and ``Less``/``More`` indices naming the
next entry to compare after the current comparison resolves smaller or
larger.

Index encoding: any value outside ``[0, n_entries)`` is invalid and stops
the walk.  The OS additionally encodes *where* the walk fell off using
"miss sentinels" — invalid indices that pack (entry, direction) — so that
after reading ``Ptr`` via ``get_PFE_info`` it knows from which tree node
to refill.  The paper leaves this software convention open ("the OS
reloads the Scan Table with the next set of pages"); packing the position
into the invalid index is the natural realisation and costs no hardware.
"""

from dataclasses import dataclass, field
from typing import List, Optional

#: An invalid index with no continuation information (plain "no child").
INVALID_INDEX = -1

_SENTINEL_BASE = 1 << 8  # comfortably outside any real entry index


class ScanTableCorruption(RuntimeError):
    """The engine observed an impossible Scan-Table state mid-walk.

    Raised instead of hanging (a Less/More cycle), reading garbage (the
    current entry's V bit dropped under the walk), or handing the OS an
    undecodable ``Ptr`` (a pointer that is neither an entry index, a miss
    sentinel, nor ``INVALID_INDEX``).  The OS driver treats it as a
    failed batch: flush, back off, retry.
    """

    def __init__(self, message, ptr=None):
        super().__init__(message)
        self.ptr = ptr


def pointer_sane(index, n_entries):
    """True if ``index`` is decodable walk state for an ``n_entries`` table.

    Sane values are an in-range entry index (valid or not — a clear V bit
    just stops the walk), ``INVALID_INDEX``, or a miss sentinel naming an
    in-range entry.  Anything else is bit rot.
    """
    if index == INVALID_INDEX:
        return True
    if 0 <= index < n_entries:
        return True
    if is_miss_sentinel(index):
        entry_index, _direction = decode_miss_sentinel(index)
        return 0 <= entry_index < n_entries
    return False


def miss_sentinel(entry_index, direction):
    """Encode an out-of-table continuation as an invalid index.

    ``direction`` is "left" (candidate smaller) or "right" (larger).
    """
    if direction not in ("left", "right"):
        raise ValueError(f"bad direction: {direction}")
    return _SENTINEL_BASE + entry_index * 2 + (0 if direction == "left" else 1)


def is_miss_sentinel(index):
    return index >= _SENTINEL_BASE


def decode_miss_sentinel(index):
    """Inverse of :func:`miss_sentinel`: returns (entry_index, direction)."""
    if not is_miss_sentinel(index):
        raise ValueError(f"not a miss sentinel: {index}")
    offset = index - _SENTINEL_BASE
    return offset // 2, "left" if offset % 2 == 0 else "right"


@dataclass
class OtherPageEntry:
    """One Other Pages row: V, PPN, Less, More (Figure 2b)."""

    valid: bool = False
    ppn: int = 0
    less: int = INVALID_INDEX
    more: int = INVALID_INDEX

    def clear(self):
        self.valid = False
        self.ppn = 0
        self.less = INVALID_INDEX
        self.more = INVALID_INDEX


@dataclass
class PFEEntry:
    """The PageForge Entry: candidate page and control state."""

    valid: bool = False
    ppn: int = 0
    hash_key: Optional[int] = None
    ptr: int = INVALID_INDEX
    scanned: bool = False  # S
    duplicate: bool = False  # D
    hash_ready: bool = False  # H
    last_refill: bool = False  # L

    def clear(self):
        self.valid = False
        self.ppn = 0
        self.hash_key = None
        self.ptr = INVALID_INDEX
        self.scanned = False
        self.duplicate = False
        self.hash_ready = False
        self.last_refill = False


@dataclass
class ScanTable:
    """The PFE entry plus ``n_entries`` Other Pages entries (~260 B)."""

    n_entries: int = 31
    pfe: PFEEntry = field(default_factory=PFEEntry)
    entries: List[OtherPageEntry] = field(default_factory=list)

    def __post_init__(self):
        if not self.entries:
            self.entries = [OtherPageEntry() for _ in range(self.n_entries)]
        if len(self.entries) != self.n_entries:
            raise ValueError("entry list does not match n_entries")

    # Hardware-visible operations -------------------------------------------------

    def entry(self, index):
        if not self.index_valid(index):
            raise IndexError(f"invalid Scan Table index: {index}")
        return self.entries[index]

    def index_valid(self, index):
        """True if ``index`` names a valid, filled Other Pages entry."""
        return 0 <= index < self.n_entries and self.entries[index].valid

    def clear_entries(self):
        """Invalidate the Other Pages array (refill boundary)."""
        for entry in self.entries:
            entry.clear()

    def clear(self):
        self.clear_entries()
        self.pfe.clear()

    # Sizing (Table 2 reports ~260 B for 31 + 1 entries) -----------------------------

    def storage_bits(self, ppn_bits=36, hash_bits=32):
        """Approximate storage requirement of the table in bits.

        Other Pages entry: V + PPN + two pointers wide enough to hold a
        miss sentinel; PFE: V + PPN + hash + Ptr + 4 control bits.
        """
        ptr_bits = 10  # covers entry indices plus sentinel space
        other = self.n_entries * (1 + ppn_bits + 2 * ptr_bits)
        pfe = 1 + ppn_bits + hash_bits + ptr_bits + 4
        return other + pfe
