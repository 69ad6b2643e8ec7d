"""The snoopy coherence bus connecting private caches, the L3, and the MCs.

Two clients matter for the paper's mechanism:

* cores snoop one another for the latest copy of a line;
* the memory controller (on behalf of PageForge) issues a request "to the
  on-chip network first" (Section 3.2.2): if any cache can supply the
  line, it is serviced from the network; otherwise from DRAM.  PageForge
  itself never participates as a supplier and is not recorded as a sharer
  (Section 3.5).
"""

from dataclasses import dataclass

from repro.cache.mesi import MESIState


@dataclass
class ProbeResult:
    """Outcome of a bus probe for one line."""

    hit: bool
    supplier: str = ""  # "L1/L2 core-i" or "L3"
    was_dirty: bool = False


class SnoopBus:
    """Broadcast bus with MESI bookkeeping over registered caches."""

    def __init__(self, page_invalidation_scope="all"):
        self._private = []  # list of (core_id, [caches])
        self._l3 = None
        # Presence index: line address -> number of registered caches
        # holding an entry for it (in any state).  The caches keep it
        # current; a probe for an absent address misses on one lookup.
        self._presence = {}
        self.snoop_probes = 0
        self.supplied_from_cache = 0
        # "all" (coherence-exact) or "shared-only": large timing sims
        # skip sweeping every private cache on page remaps, where stale
        # private tags are harmless and the sweep dominates runtime.
        self.page_invalidation_scope = page_invalidation_scope

    def register_private(self, core_id, caches):
        """Register a core's private cache levels (L1, L2)."""
        caches = list(caches)
        for cache in caches:
            cache.attach_presence(self._presence)
        self._private.append((core_id, caches))

    def register_shared(self, l3):
        l3.attach_presence(self._presence)
        self._l3 = l3

    @property
    def l3(self):
        return self._l3

    @property
    def presence(self):
        """The presence index (read-only for callers).

        A line address absent from it is in no registered cache, so a
        :meth:`probe` for it misses; batched readers check it for whole
        line sets and add their probes to ``snoop_probes`` themselves.
        """
        return self._presence

    # Probes ----------------------------------------------------------------------

    def probe(self, addr, exclude_core=None):
        """Snoop all caches for ``addr`` without changing state.

        Used by the MC/PageForge path: a hit anywhere means the request is
        serviced from the on-chip network.
        """
        self.snoop_probes += 1
        if addr not in self._presence:
            return ProbeResult(hit=False)
        for core_id, caches in self._private:
            if core_id == exclude_core:
                continue
            for cache in caches:
                state = cache.peek(addr)
                if state is not None and state.can_supply:
                    self.supplied_from_cache += 1
                    return ProbeResult(
                        hit=True,
                        supplier=f"core-{core_id}",
                        was_dirty=state.is_dirty,
                    )
        if self._l3 is not None:
            state = self._l3.peek(addr)
            if state is not None and state.can_supply:
                self.supplied_from_cache += 1
                return ProbeResult(hit=True, supplier="L3",
                                   was_dirty=state.is_dirty)
        return ProbeResult(hit=False)

    # Coherence transactions --------------------------------------------------------

    def read_shared(self, addr, requesting_core):
        """A core read: demote remote M/E copies to S; return ProbeResult."""
        self.snoop_probes += 1
        if addr not in self._presence:
            return ProbeResult(hit=False)
        result = ProbeResult(hit=False)
        for core_id, caches in self._private:
            if core_id == requesting_core:
                continue
            for cache in caches:
                state = cache.peek(addr)
                if state is not None and state.can_supply:
                    if state in (MESIState.MODIFIED, MESIState.EXCLUSIVE):
                        cache.set_state(addr, MESIState.SHARED)
                    result = ProbeResult(
                        hit=True, supplier=f"core-{core_id}",
                        was_dirty=state.is_dirty,
                    )
        if self._l3 is not None and not result.hit:
            state = self._l3.peek(addr)
            if state is not None:
                result = ProbeResult(hit=True, supplier="L3",
                                     was_dirty=state.is_dirty)
        return result

    def read_exclusive(self, addr, requesting_core):
        """A core write: invalidate all other copies; return ProbeResult."""
        self.snoop_probes += 1
        if addr not in self._presence:
            return ProbeResult(hit=False)
        result = ProbeResult(hit=False)
        for core_id, caches in self._private:
            if core_id == requesting_core:
                continue
            for cache in caches:
                state = cache.peek(addr)
                if state is not None and state.is_valid:
                    dirty = cache.invalidate(addr)
                    result = ProbeResult(
                        hit=True, supplier=f"core-{core_id}", was_dirty=dirty
                    )
        return result

    def invalidate_page_everywhere(self, ppn):
        """Invalidate a whole page in every cache (CoW remap / merge)."""
        if self.page_invalidation_scope == "all":
            for _core_id, caches in self._private:
                for cache in caches:
                    cache.invalidate_page(ppn)
        if self._l3 is not None:
            self._l3.invalidate_page(ppn)
