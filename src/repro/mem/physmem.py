"""Host physical memory: a refcounted frame allocator over real pages."""

from repro.common.units import PAGE_BYTES
from repro.mem.frame import PageFrame


class OutOfMemoryError(RuntimeError):
    """Raised when the frame allocator is exhausted."""


class PhysicalMemory:
    """Refcounted physical frames backing all VMs.

    Frames are materialised lazily (a 16 GB machine has four million PPNs;
    only the ones actually allocated carry a byte array).  Merging raises a
    frame's refcount; the frame is returned to the free pool only when the
    count drops to zero.  ``allocated_frames`` therefore directly measures
    the machine's memory footprint — the quantity plotted in Figure 7.
    """

    def __init__(self, capacity_bytes):
        if capacity_bytes % PAGE_BYTES != 0:
            raise ValueError("capacity must be page aligned")
        self.capacity_pages = capacity_bytes // PAGE_BYTES
        self._frames = {}
        self._next_ppn = 0
        self._free_ppns = []
        self.peak_allocated = 0
        self.total_allocations = 0
        self.total_frees = 0

    # Allocation ---------------------------------------------------------------

    def allocate(self, zero=True):
        """Allocate a frame; returns its :class:`PageFrame`.

        The hypervisor zeroes pages before handing them to a guest to
        avoid information leakage (Section 6.1); ``zero=False`` skips the
        memset for internal copies that are immediately overwritten.
        """
        if self._free_ppns:
            ppn = self._free_ppns.pop()
        elif self._next_ppn < self.capacity_pages:
            ppn = self._next_ppn
            self._next_ppn += 1
        else:
            raise OutOfMemoryError(
                f"physical memory exhausted ({self.capacity_pages} pages)"
            )
        frame = PageFrame(ppn)
        if not zero:
            # Frames start zeroed anyway; zero=False only skips the
            # explicit re-zeroing of recycled frames.
            pass
        self._frames[ppn] = frame
        self.total_allocations += 1
        self.peak_allocated = max(self.peak_allocated, len(self._frames))
        return frame

    def frame(self, ppn):
        """The :class:`PageFrame` for ``ppn`` (must be allocated)."""
        try:
            return self._frames[ppn]
        except KeyError:
            raise KeyError(f"PPN {ppn} is not an allocated frame") from None

    def is_allocated(self, ppn):
        return ppn in self._frames

    # Refcounting / merging ------------------------------------------------------

    def incref(self, ppn):
        """Add a reference (another guest page now maps to this frame)."""
        self.frame(ppn).refcount += 1

    def decref(self, ppn):
        """Drop a reference; frees the frame when the count reaches zero.

        Returns True if the frame was freed.
        """
        frame = self.frame(ppn)
        if frame.refcount <= 0:
            raise ValueError(f"PPN {ppn} already has refcount 0")
        frame.refcount -= 1
        if frame.refcount == 0:
            del self._frames[ppn]
            self._free_ppns.append(ppn)
            self.total_frees += 1
            return True
        return False

    # Accounting ---------------------------------------------------------------

    @property
    def allocated_frames(self):
        """Number of live physical frames (the Fig. 7 metric)."""
        return len(self._frames)

    def frames(self):
        """Iterator over live frames."""
        return iter(self._frames.values())

    def ppns(self):
        """Iterator over live PPNs."""
        return iter(self._frames.keys())

    def __len__(self):
        return len(self._frames)

    def __contains__(self, ppn):
        return ppn in self._frames
