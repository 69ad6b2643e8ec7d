"""A core's view of the cache hierarchy (L1 -> L2 -> shared L3 -> memory).

Latencies follow Table 2 (2 / 6 / 20-cycle round trips).  The hierarchy is
what the KSM daemon pollutes: every byte it compares streams through the
caches of whichever core it is currently scheduled on, evicting
application lines — the L3 miss-rate inflation of Table 4.
"""

from dataclasses import dataclass

from repro.cache.mesi import MESIState
from repro.cache.setassoc import SetAssocCache, _Entry


@dataclass
class AccessResult:
    """Where an access hit and what it cost."""

    level: str  # "L1" | "L2" | "L3" | "MEM"
    latency_cycles: int
    mshr_stall: bool = False


class CoreCacheHierarchy:
    """Private L1/L2 in front of the shared L3 for one core."""

    def __init__(self, core_id, processor_config, shared_l3, bus,
                 memory_latency_fn=None):
        self.core_id = core_id
        self.config = processor_config
        self.l1 = SetAssocCache(processor_config.l1)
        self.l2 = SetAssocCache(processor_config.l2)
        self.l3 = shared_l3
        self.bus = bus
        # Called on an L3 miss: (addr, is_write, source) -> latency cycles.
        self._memory_latency_fn = memory_latency_fn or (lambda *a: 200)
        bus.register_private(core_id, [self.l1, self.l2])

    def access(self, addr, is_write=False, source="core", allocate=True):
        """One line access by this core; returns :class:`AccessResult`.

        ``allocate=False`` models cache-bypassing accesses (Section 4.3):
        the data is fetched but not installed, though it still occupies an
        MSHR while outstanding.
        """
        cfg = self.config
        fill_state = MESIState.MODIFIED if is_write else MESIState.EXCLUSIVE

        if self.l1.lookup(addr, source=source) is not None:
            if is_write:
                self.l1.set_state(addr, MESIState.MODIFIED)
                self.bus.read_exclusive(addr, self.core_id)
            return AccessResult("L1", cfg.l1.round_trip_cycles)

        if self.l2.lookup(addr, source=source) is not None:
            if allocate:
                self.l1.insert(addr, fill_state, source=source)
            if is_write:
                self.l2.set_state(addr, MESIState.MODIFIED)
                self.bus.read_exclusive(addr, self.core_id)
            return AccessResult("L2", cfg.l2.round_trip_cycles)

        acquired = self.l2.acquire_mshr()
        try:
            if self.l3.lookup(addr, source=source) is not None:
                latency = cfg.l3.round_trip_cycles
                level = "L3"
                if is_write:
                    self.bus.read_exclusive(addr, self.core_id)
            else:
                # Snoop other cores, then go to memory.
                probe = (
                    self.bus.read_exclusive(addr, self.core_id)
                    if is_write
                    else self.bus.read_shared(addr, self.core_id)
                )
                if probe.hit:
                    latency = cfg.l3.round_trip_cycles + 10  # cache-to-cache
                    level = "L3"
                else:
                    latency = cfg.l3.round_trip_cycles + self._memory_latency_fn(
                        addr, is_write, source
                    )
                    level = "MEM"
                if allocate:
                    self.l3.insert(
                        addr,
                        MESIState.MODIFIED if is_write else MESIState.SHARED,
                        source=source,
                    )
        finally:
            if acquired:
                self.l2.release_mshr()

        if allocate:
            self.l2.insert(addr, fill_state, source=source)
            self.l1.insert(addr, fill_state, source=source)
        mshr_stall = not acquired
        if mshr_stall:
            latency += cfg.l2.round_trip_cycles  # retry delay under pressure
        return AccessResult(level, latency, mshr_stall=mshr_stall)

    def stream_pages(self, ppns, lines, source, advance, on_page):
        """Read ``lines`` (offsets in each page) of every page in ``ppns``.

        One call does what ``access(addr, source=source)`` would for each
        line in turn, page by page: the same L1/L2/L3 lookups, fills, LRU
        moves, evictions, MSHR retries, presence-index updates, snoops and
        memory calls, in the same order.  No per-line method call or
        :class:`AccessResult` is made; hit, miss and eviction counters
        are summed locally and added to each cache's stats once.

        ``advance(latency_cycles)`` runs after every line (the memory
        clock a later miss reads), and ``on_page(latency_sum, mem_misses)``
        after each page's lines.
        """
        cfg = self.config
        l1, l2, l3 = self.l1, self.l2, self.l3
        sets1, sets2, sets3 = l1._sets, l2._sets, l3._sets
        n1, n2, n3 = l1.n_sets, l2.n_sets, l3.n_sets
        ways1, ways2, ways3 = l1.ways, l2.ways, l3.ways
        pres1, pres2, pres3 = l1._presence, l2._presence, l3._presence
        lat1 = cfg.l1.round_trip_cycles
        lat2 = cfg.l2.round_trip_cycles
        lat3 = cfg.l3.round_trip_cycles
        bus = self.bus
        bus_presence = bus.presence
        read_shared = bus.read_shared
        core_id = self.core_id
        memory_latency = self._memory_latency_fn
        invalid, modified = MESIState.INVALID, MESIState.MODIFIED
        exclusive, shared = MESIState.EXCLUSIVE, MESIState.SHARED
        # acquire_mshr/release_mshr around each L3 access net out, and a
        # stalled miss acquires nothing, so the L2's MSHR count holds
        # for the whole call: misses stall on all of it or on none.
        stall = l2._outstanding >= l2.mshrs
        hits1 = misses1 = hits2 = misses2 = hits3 = misses3 = 0
        evict1 = evict2 = evict3 = dirty1 = dirty2 = dirty3 = 0
        probes = 0
        try:
            for ppn in ppns:
                base = ppn * 64
                page_latency = 0
                page_misses = 0
                for line in lines:
                    addr = base + line
                    set1 = sets1[addr % n1]
                    entry1 = set1.get(addr)
                    if entry1 is not None and entry1.state is not invalid:
                        set1.move_to_end(addr)
                        hits1 += 1
                        page_latency += lat1
                        advance(lat1)
                        continue
                    misses1 += 1
                    set2 = sets2[addr % n2]
                    entry2 = set2.get(addr)
                    if entry2 is not None and entry2.state is not invalid:
                        set2.move_to_end(addr)
                        hits2 += 1
                        latency = lat2
                    else:
                        misses2 += 1
                        set3 = sets3[addr % n3]
                        entry3 = set3.get(addr)
                        if entry3 is not None and entry3.state is not invalid:
                            set3.move_to_end(addr)
                            hits3 += 1
                            latency = lat3
                        else:
                            misses3 += 1
                            if addr in bus_presence:
                                hit = read_shared(addr, core_id).hit
                            else:
                                probes += 1
                                hit = False
                            if hit:
                                latency = lat3 + 10  # cache-to-cache
                            else:
                                latency = lat3 + memory_latency(
                                    addr, False, source
                                )
                                page_misses += 1
                            # l3.insert(addr, SHARED)
                            if entry3 is not None:
                                entry3.state = shared
                                entry3.owner = source
                                set3.move_to_end(addr)
                            else:
                                if len(set3) >= ways3:
                                    old, entry3 = set3.popitem(False)
                                    evict3 += 1
                                    if entry3.state is modified:
                                        dirty3 += 1
                                    if pres3 is not None:
                                        count = pres3[old] - 1
                                        if count:
                                            pres3[old] = count
                                        else:
                                            del pres3[old]
                                    entry3.addr = addr
                                    entry3.state = shared
                                    entry3.owner = source
                                else:
                                    entry3 = _Entry(addr, shared, source)
                                set3[addr] = entry3
                                if pres3 is not None:
                                    pres3[addr] = pres3.get(addr, 0) + 1
                        if stall:
                            latency += lat2  # retry delay under pressure
                        # l2.insert(addr, EXCLUSIVE)
                        if entry2 is not None:
                            entry2.state = exclusive
                            entry2.owner = source
                            set2.move_to_end(addr)
                        else:
                            if len(set2) >= ways2:
                                old, entry2 = set2.popitem(False)
                                evict2 += 1
                                if entry2.state is modified:
                                    dirty2 += 1
                                if pres2 is not None:
                                    count = pres2[old] - 1
                                    if count:
                                        pres2[old] = count
                                    else:
                                        del pres2[old]
                                entry2.addr = addr
                                entry2.state = exclusive
                                entry2.owner = source
                            else:
                                entry2 = _Entry(addr, exclusive, source)
                            set2[addr] = entry2
                            if pres2 is not None:
                                pres2[addr] = pres2.get(addr, 0) + 1
                    # l1.insert(addr, EXCLUSIVE)
                    if entry1 is not None:
                        entry1.state = exclusive
                        entry1.owner = source
                        set1.move_to_end(addr)
                    else:
                        if len(set1) >= ways1:
                            old, entry1 = set1.popitem(False)
                            evict1 += 1
                            if entry1.state is modified:
                                dirty1 += 1
                            if pres1 is not None:
                                count = pres1[old] - 1
                                if count:
                                    pres1[old] = count
                                else:
                                    del pres1[old]
                            entry1.addr = addr
                            entry1.state = exclusive
                            entry1.owner = source
                        else:
                            entry1 = _Entry(addr, exclusive, source)
                        set1[addr] = entry1
                        if pres1 is not None:
                            pres1[addr] = pres1.get(addr, 0) + 1
                    page_latency += latency
                    advance(latency)
                on_page(page_latency, page_misses)
        finally:
            bus.snoop_probes += probes
            # The per-source maps get a key only for a nonzero count,
            # as per-line updates would give them.
            for stats, hits, misses, evictions, writebacks in (
                (l1.stats, hits1, misses1, evict1, dirty1),
                (l2.stats, hits2, misses2, evict2, dirty2),
                (l3.stats, hits3, misses3, evict3, dirty3),
            ):
                if hits:
                    stats.hits += hits
                    stats.hits_by_source[source] += hits
                if misses:
                    stats.misses += misses
                    stats.misses_by_source[source] += misses
                if evictions:
                    stats.evictions += evictions
                    stats.evictions_by_source[source] += evictions
                    stats.writebacks += writebacks
