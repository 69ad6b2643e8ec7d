"""A physical page frame with real contents and lazily computed ECC codes."""

import numpy as np

from repro.common.units import (
    CACHE_LINE_BYTES,
    LINES_PER_PAGE,
    PAGE_BYTES,
)
from repro.ecc.hamming import encode_page

#: Process-wide count of frame content mutations.  Batch sweeps (e.g. the
#: KSM daemon's checksum priming) record the epoch after a sweep and skip
#: the next one entirely when no frame anywhere was written in between.
_WRITE_EPOCH = 0


def write_epoch():
    """The global frame-write epoch (monotonic; bumped by every write)."""
    return _WRITE_EPOCH


class PageFrame:
    """One 4 KB physical frame.

    Frames carry their actual bytes (``numpy.uint8`` array), a reference
    count (>1 after merging), and a cached per-line ECC-code table that is
    invalidated whenever the frame is written — mirroring how the DIMM's
    ECC chip always stores codes consistent with the data chips.

    A monotonically increasing ``version`` counter tracks content
    mutations; every derived view (``content_bytes``, the jhash checksum,
    the ECC hash key) is memoized against it, so steady-state merge scans
    — which revisit unchanged pages every pass — pay for hashing and
    byte-materialisation once per write, not once per visit.
    """

    __slots__ = (
        "ppn", "data", "refcount", "_ecc_codes", "writes", "reads",
        "version", "_content_bytes", "_checksum_memo",
    )

    def __init__(self, ppn, data=None):
        self.ppn = int(ppn)
        if data is None:
            self.data = np.zeros(PAGE_BYTES, dtype=np.uint8)
        else:
            data = np.asarray(data, dtype=np.uint8)
            if data.size != PAGE_BYTES:
                raise ValueError(f"frame data must be {PAGE_BYTES} bytes")
            self.data = data.copy()
        self.refcount = 1
        self._ecc_codes = None
        self.writes = 0
        self.reads = 0
        self.version = 0
        self._content_bytes = None
        self._checksum_memo = None

    def _invalidate(self):
        """Drop every content-derived cache after a write."""
        global _WRITE_EPOCH
        self._ecc_codes = None
        self._content_bytes = None
        self._checksum_memo = None
        self.version += 1
        self.writes += 1
        _WRITE_EPOCH += 1

    # Content access ------------------------------------------------------------

    def read_line(self, line_index):
        """The 64 B cache line at ``line_index`` (a view, do not mutate)."""
        if not 0 <= line_index < LINES_PER_PAGE:
            raise IndexError(f"line index out of range: {line_index}")
        self.reads += 1
        start = line_index * CACHE_LINE_BYTES
        return self.data[start : start + CACHE_LINE_BYTES]

    def write_line(self, line_index, line_bytes):
        """Overwrite the 64 B line at ``line_index`` and drop cached ECC."""
        if not 0 <= line_index < LINES_PER_PAGE:
            raise IndexError(f"line index out of range: {line_index}")
        line = np.asarray(line_bytes, dtype=np.uint8)
        if line.size != CACHE_LINE_BYTES:
            raise ValueError(f"line must be {CACHE_LINE_BYTES} bytes")
        start = line_index * CACHE_LINE_BYTES
        self.data[start : start + CACHE_LINE_BYTES] = line
        self._invalidate()

    def write_bytes(self, offset, payload):
        """Write arbitrary bytes at ``offset`` within the page."""
        payload = np.asarray(payload, dtype=np.uint8)
        if offset < 0 or offset + payload.size > PAGE_BYTES:
            raise ValueError("write outside page bounds")
        self.data[offset : offset + payload.size] = payload
        self._invalidate()

    def fill(self, data):
        """Replace the whole page contents."""
        data = np.asarray(data, dtype=np.uint8)
        if data.size != PAGE_BYTES:
            raise ValueError(f"frame data must be {PAGE_BYTES} bytes")
        self.data[:] = data
        self._invalidate()

    def zero(self):
        """Zero the frame (the hypervisor does this on allocation)."""
        self.data[:] = 0
        self._invalidate()

    # Derived views -------------------------------------------------------------

    @property
    def content_bytes(self):
        """The page contents as an immutable ``bytes`` snapshot.

        Cached until the next write.  Tree walks and checksum paths key
        on this object: comparing two frames becomes one C memcmp, and
        repeated hashing of an unchanged frame hits a dict with an
        already-computed hash of the same ``bytes`` object.
        """
        if self._content_bytes is None:
            self._content_bytes = self.data.tobytes()
        return self._content_bytes

    @property
    def ecc_codes(self):
        """Per-line (64 x 8) ECC code table, recomputed after writes."""
        if self._ecc_codes is None:
            self._ecc_codes = encode_page(self.data)
        return self._ecc_codes

    def ecc_code_for_line(self, line_index):
        """8-byte ECC code of one line (as stored in the spare chip)."""
        return self.ecc_codes[line_index]

    def seed_checksum(self, params, value):
        """Set the checksum memo, kept until the next write.

        ``params`` describes what was computed (window, initval); the
        KSM daemon reads ``_checksum_memo`` back itself.
        """
        self._checksum_memo = (params, value)

    def is_zero(self):
        """True if every byte of the frame is zero."""
        return not self.data.any()

    def same_contents(self, other):
        """Exhaustive byte equality with another frame."""
        return self.content_bytes == other.content_bytes

    def __repr__(self):
        return f"PageFrame(ppn={self.ppn}, refcount={self.refcount})"
