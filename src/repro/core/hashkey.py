"""ECC-based hash keys (Section 3.3, Figure 6).

A 4 KB page is divided into four 1 KB sections; one fixed line offset is
chosen per section (``update_ECC_offset`` changes them after workload
profiling).  The *minikey* of a line is the least-significant 8 bits of
its 8 B ECC code; the page's hash key concatenates the four minikeys into
32 bits.  Only 256 B of page data back the key — a 75% reduction over
KSM's 1 KB jhash window — and the minikeys arrive for free with lines the
comparator already fetches.
"""

from repro.common.units import (
    CACHE_LINE_BYTES,
    HASH_SECTION_BYTES,
    HASH_SECTIONS_PER_PAGE,
    LINES_PER_PAGE,
)
from repro.ecc.hamming import encode_lines

_LINES_PER_SECTION = HASH_SECTION_BYTES // CACHE_LINE_BYTES


def validate_offsets(line_offsets):
    """Check that each configured line offset falls in its own section."""
    if len(line_offsets) != HASH_SECTIONS_PER_PAGE:
        raise ValueError(
            f"need {HASH_SECTIONS_PER_PAGE} offsets, got {len(line_offsets)}"
        )
    for section, line in enumerate(line_offsets):
        lo = section * _LINES_PER_SECTION
        hi = lo + _LINES_PER_SECTION
        if not lo <= line < hi:
            raise ValueError(
                f"offset {line} outside section {section} range [{lo},{hi})"
            )
    return tuple(int(x) for x in line_offsets)


def minikey_from_ecc(code_bytes, minikey_bits=8):
    """The least-significant ``minikey_bits`` of a line's 8 B ECC code.

    The line code is the concatenation of its eight per-word check bytes;
    little-endian, the least-significant byte is word 0's check byte.
    """
    value = int(code_bytes[0])
    if minikey_bits < 8:
        value &= (1 << minikey_bits) - 1
    elif minikey_bits > 8:
        # Wider minikeys borrow bits from subsequent check bytes.
        needed = (minikey_bits + 7) // 8
        value = 0
        for i in range(needed):
            value |= int(code_bytes[i]) << (8 * i)
        value &= (1 << minikey_bits) - 1
    return value


def ecc_hash_key(page_bytes, line_offsets=(0, 16, 32, 48), minikey_bits=8,
                 codes=None):
    """Compute a page's ECC hash key directly (software reference).

    The hardware assembles the same value incrementally as lines stream
    past; this function picks the same minikeys, and is used for
    verification and for experiments that only need the key.

    Each 64 B line encodes independently, so only the selected lines are
    encoded (256 B of a 4 KB page for the default geometry) — the same
    data reduction the paper's hardware gets for free.  Passing a full
    per-line ``codes`` table (``(64, 8)``, e.g. a frame's cached
    ``ecc_codes``) skips encoding entirely.
    """
    line_offsets = validate_offsets(line_offsets)
    if codes is None:
        selected = encode_lines(page_bytes, line_offsets)
    else:
        selected = [codes[line] for line in line_offsets]
    key = 0
    for i, line_code in enumerate(selected):
        key |= minikey_from_ecc(line_code, minikey_bits) << (minikey_bits * i)
    return key


class ECCHashKeyGenerator:
    """Incremental key assembly, as the PageForge hardware performs it.

    The comparator notifies the generator of every (line_index, ecc_code)
    it observes for the candidate page; when all configured sections have
    reported, the key is ready (H bit).  ``missing_lines`` lists what a
    forced completion (Last Refill) still has to fetch.
    """

    def __init__(self, line_offsets=(0, 16, 32, 48), minikey_bits=8):
        self.line_offsets = validate_offsets(line_offsets)
        self.minikey_bits = minikey_bits
        self._wanted = {
            line: section for section, line in enumerate(self.line_offsets)
        }
        self._wanted_in_order = sorted(self._wanted.items())
        self._minikeys = {}

    def reset(self):
        self._minikeys = {}

    def observe(self, line_index, ecc_code):
        """Feed one observed line's ECC code; returns True if consumed."""
        if not 0 <= line_index < LINES_PER_PAGE:
            raise IndexError(f"line index out of range: {line_index}")
        section = self._wanted.get(line_index)
        if section is None or section in self._minikeys:
            return False
        self._minikeys[section] = minikey_from_ecc(
            ecc_code, self.minikey_bits
        )
        return True

    @property
    def ready(self):
        return len(self._minikeys) == len(self.line_offsets)

    def missing_lines(self):
        """Line indices still needed to complete the key."""
        minikeys = self._minikeys
        return [
            line
            for line, section in self._wanted_in_order
            if section not in minikeys
        ]

    def key(self):
        if not self.ready:
            raise RuntimeError("hash key not ready (H bit clear)")
        value = 0
        for section in range(len(self.line_offsets)):
            value |= self._minikeys[section] << (self.minikey_bits * section)
        return value
