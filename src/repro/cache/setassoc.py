"""A set-associative cache with LRU replacement, MESI tags, and MSHRs."""

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field

from repro.cache.mesi import MESIState

# Identity checks against these replace the enum properties on the hot
# paths (``state is not _INVALID`` is ``state.is_valid``).
_INVALID = MESIState.INVALID
_MODIFIED = MESIState.MODIFIED


@dataclass
class CacheStats:
    """Hit/miss/eviction counters, split by requester source."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0
    hits_by_source: dict = field(default_factory=lambda: defaultdict(int))
    misses_by_source: dict = field(default_factory=lambda: defaultdict(int))
    evictions_by_source: dict = field(default_factory=lambda: defaultdict(int))

    @property
    def accesses(self):
        return self.hits + self.misses


class _Entry:
    __slots__ = ("addr", "state", "owner")

    def __init__(self, addr, state, owner):
        self.addr = addr
        self.state = state
        self.owner = owner  # source that installed the line


class SetAssocCache:
    """LRU set-associative cache over line addresses.

    ``addr`` is the line address (``ppn * 64 + line_index``).  The cache
    stores MESI tags only; real bytes live in the page frames.  MSHRs
    bound the number of outstanding misses — exceeded MSHRs surface as
    extra stall cycles in the hierarchy (Section 4.3 notes non-cacheable
    schemes suffer exactly this MSHR pressure).
    """

    def __init__(self, config):
        self.config = config
        self.n_sets = config.n_sets
        self.ways = config.ways
        # OrderedDict per set: LRU order is insertion order, maintained
        # with O(1) move_to_end / popitem instead of timestamp scans.
        # The set of ``addr`` is ``self._sets[addr % self.n_sets]``,
        # written out inline on every hot path below.
        self._sets = [OrderedDict() for _ in range(self.n_sets)]
        self.stats = CacheStats()
        self.mshrs = config.mshrs
        self._outstanding = 0
        # The snoop bus's presence index (addr -> number of registered
        # caches holding an entry), set by :meth:`attach_presence`;
        # None for a standalone cache.
        self._presence = None

    # Lookup / insert -----------------------------------------------------------

    def lookup(self, addr, source="core", update_lru=True):
        """Return the line's MESI state, or None on miss."""
        cache_set = self._sets[addr % self.n_sets]
        entry = cache_set.get(addr)
        if entry is None or entry.state is _INVALID:
            self.stats.misses += 1
            self.stats.misses_by_source[source] += 1
            return None
        if update_lru:
            cache_set.move_to_end(addr)
        self.stats.hits += 1
        self.stats.hits_by_source[source] += 1
        return entry.state

    def peek(self, addr):
        """State without affecting LRU or stats (for snoops/probes)."""
        entry = self._sets[addr % self.n_sets].get(addr)
        if entry is None:
            return None
        state = entry.state
        return state if state is not _INVALID else None

    def insert(self, addr, state, source="core"):
        """Install a line; returns the evicted (addr, state, owner) or None."""
        cache_set = self._sets[addr % self.n_sets]
        existing = cache_set.get(addr)
        if existing is not None:
            existing.state = state
            existing.owner = source
            cache_set.move_to_end(addr)
            return None
        presence = self._presence
        victim = None
        if len(cache_set) >= self.ways:
            lru_addr, lru_entry = cache_set.popitem(last=False)
            victim = (lru_addr, lru_entry.state, lru_entry.owner)
            self.stats.evictions += 1
            self.stats.evictions_by_source[source] += 1
            if lru_entry.state is _MODIFIED:
                self.stats.writebacks += 1
            if presence is not None:
                _release(presence, lru_addr)
        cache_set[addr] = _Entry(addr, state, source)
        if presence is not None:
            presence[addr] = presence.get(addr, 0) + 1
        return victim

    # Coherence actions ----------------------------------------------------------

    def set_state(self, addr, state):
        entry = self._sets[addr % self.n_sets].get(addr)
        if entry is not None:
            entry.state = state

    def invalidate(self, addr):
        """Invalidate a line; returns True if it was present and dirty."""
        cache_set = self._sets[addr % self.n_sets]
        entry = cache_set.get(addr)
        if entry is None or entry.state is _INVALID:
            return False
        dirty = entry.state is _MODIFIED
        del cache_set[addr]
        if self._presence is not None:
            _release(self._presence, addr)
        self.stats.invalidations += 1
        if dirty:
            self.stats.writebacks += 1
        return dirty

    def invalidate_page(self, ppn):
        """Invalidate every line of a page (used on CoW re-mapping).

        Under a snoop bus, lines absent from its presence index are in no
        registered cache, this one included, and are skipped.
        """
        presence = self._presence
        base = ppn * 64
        dirty_any = False
        for addr in range(base, base + 64):
            if presence is None or addr in presence:
                dirty_any |= self.invalidate(addr)
        return dirty_any

    def attach_presence(self, presence):
        """Keep the bus's presence index in step with this cache.

        Counts every entry already resident, then updates ``presence``
        wherever an entry appears or disappears: the new-line branch of
        :meth:`insert`, its LRU victim, and :meth:`invalidate`.
        """
        self._presence = presence
        for cache_set in self._sets:
            for addr in cache_set:
                presence[addr] = presence.get(addr, 0) + 1

    # MSHR accounting -------------------------------------------------------------

    def acquire_mshr(self):
        """Reserve an MSHR for an outstanding miss; False if all busy."""
        if self._outstanding >= self.mshrs:
            return False
        self._outstanding += 1
        return True

    def release_mshr(self):
        if self._outstanding > 0:
            self._outstanding -= 1

    # Introspection ---------------------------------------------------------------

    def occupancy(self):
        """Total valid lines resident."""
        return sum(len(s) for s in self._sets)


def _release(presence, addr):
    """Drop one holder of ``addr`` from a presence index."""
    count = presence[addr] - 1
    if count:
        presence[addr] = count
    else:
        del presence[addr]
