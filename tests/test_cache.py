"""Tests for repro.cache: set-assoc cache, MESI, bus, hierarchy."""

import pytest

from repro.cache import (
    CoreCacheHierarchy,
    MESIState,
    SetAssocCache,
    SnoopBus,
)
from repro.common.config import CacheConfig, ProcessorConfig


def small_cache(sets=4, ways=2, name="T"):
    return SetAssocCache(
        CacheConfig(
            name=name, size_bytes=sets * ways * 64, ways=ways,
            round_trip_cycles=2, mshrs=4,
        )
    )


class TestMESIState:
    def test_validity(self):
        assert MESIState.MODIFIED.is_valid
        assert not MESIState.INVALID.is_valid

    def test_supply(self):
        assert MESIState.MODIFIED.can_supply
        assert MESIState.SHARED.can_supply
        assert not MESIState.INVALID.can_supply

    def test_dirty(self):
        assert MESIState.MODIFIED.is_dirty
        assert not MESIState.EXCLUSIVE.is_dirty


class TestSetAssocCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(0x100) is None
        cache.insert(0x100, MESIState.EXCLUSIVE)
        assert cache.lookup(0x100) is MESIState.EXCLUSIVE
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = small_cache(sets=1, ways=2)
        cache.insert(0, MESIState.SHARED)
        cache.insert(1, MESIState.SHARED)
        cache.lookup(0)  # make 1 the LRU
        victim = cache.insert(2, MESIState.SHARED)
        assert victim is not None
        assert victim[0] == 1

    def test_insert_existing_updates(self):
        cache = small_cache()
        cache.insert(5, MESIState.SHARED)
        assert cache.insert(5, MESIState.MODIFIED) is None
        assert cache.peek(5) is MESIState.MODIFIED

    def test_dirty_eviction_counts_writeback(self):
        cache = small_cache(sets=1, ways=1)
        cache.insert(0, MESIState.MODIFIED)
        cache.insert(64, MESIState.SHARED)
        assert cache.stats.writebacks == 1

    def test_invalidate(self):
        cache = small_cache()
        cache.insert(7, MESIState.MODIFIED)
        assert cache.invalidate(7) is True  # dirty
        assert cache.peek(7) is None
        assert cache.invalidate(7) is False

    def test_invalidate_page(self):
        cache = small_cache(sets=64, ways=4)
        for line in range(64):
            cache.insert(3 * 64 + line, MESIState.SHARED)
        cache.invalidate_page(3)
        assert cache.occupancy() == 0

    def test_mshr_accounting(self):
        cache = small_cache()
        for _ in range(4):
            assert cache.acquire_mshr()
        assert not cache.acquire_mshr()
        cache.release_mshr()
        assert cache.acquire_mshr()

    def test_occupancy_by_owner(self):
        cache = small_cache(sets=8, ways=2)
        cache.insert(0, MESIState.SHARED, source="app")
        cache.insert(1, MESIState.SHARED, source="ksm")
        cache.insert(2, MESIState.SHARED, source="ksm")
        owners = cache.occupancy_by_owner()
        assert owners == {"app": 1, "ksm": 2}

    def test_miss_rate_by_source(self):
        cache = small_cache()
        cache.lookup(0, source="app")
        cache.insert(0, MESIState.SHARED, source="app")
        cache.lookup(0, source="app")
        assert cache.stats.miss_rate_for("app") == pytest.approx(0.5)

    def test_peek_does_not_touch_stats(self):
        cache = small_cache()
        cache.peek(0)
        assert cache.stats.accesses == 0


class TestSnoopBus:
    def _bus_with_two_cores(self):
        bus = SnoopBus()
        caches = [small_cache(name=f"L1-{i}") for i in range(2)]
        for i, cache in enumerate(caches):
            bus.register_private(i, [cache])
        l3 = small_cache(sets=16, ways=4, name="L3")
        bus.register_shared(l3)
        return bus, caches, l3

    def test_probe_miss(self):
        bus, _caches, _l3 = self._bus_with_two_cores()
        assert not bus.probe(0x10).hit

    def test_probe_hits_private(self):
        bus, caches, _l3 = self._bus_with_two_cores()
        caches[1].insert(0x10, MESIState.MODIFIED)
        result = bus.probe(0x10)
        assert result.hit
        assert result.supplier == "core-1"
        assert result.was_dirty

    def test_probe_hits_l3(self):
        bus, _caches, l3 = self._bus_with_two_cores()
        l3.insert(0x20, MESIState.SHARED)
        result = bus.probe(0x20)
        assert result.hit
        assert result.supplier == "L3"

    def test_probe_excludes_core(self):
        bus, caches, _l3 = self._bus_with_two_cores()
        caches[0].insert(0x10, MESIState.EXCLUSIVE)
        assert not bus.probe(0x10, exclude_core=0).hit

    def test_read_shared_demotes(self):
        bus, caches, _l3 = self._bus_with_two_cores()
        caches[1].insert(0x10, MESIState.MODIFIED)
        result = bus.read_shared(0x10, requesting_core=0)
        assert result.hit
        assert caches[1].peek(0x10) is MESIState.SHARED

    def test_read_exclusive_invalidates(self):
        bus, caches, _l3 = self._bus_with_two_cores()
        caches[1].insert(0x10, MESIState.SHARED)
        result = bus.read_exclusive(0x10, requesting_core=0)
        assert result.hit
        assert caches[1].peek(0x10) is None

    def test_invalidate_page_everywhere(self):
        bus, caches, l3 = self._bus_with_two_cores()
        caches[0].insert(5 * 64 + 1, MESIState.SHARED)
        l3.insert(5 * 64 + 2, MESIState.SHARED)
        bus.invalidate_page_everywhere(5)
        assert caches[0].peek(5 * 64 + 1) is None
        assert l3.peek(5 * 64 + 2) is None


class TestHierarchy:
    def _build(self):
        proc = ProcessorConfig(n_cores=2)
        bus = SnoopBus()
        l3 = SetAssocCache(proc.l3)
        bus.register_shared(l3)
        latencies = []

        def mem_latency(addr, is_write, source):
            latencies.append(addr)
            return 100

        h0 = CoreCacheHierarchy(0, proc, l3, bus, mem_latency)
        h1 = CoreCacheHierarchy(1, proc, l3, bus, mem_latency)
        return h0, h1, l3, latencies

    def test_first_access_goes_to_memory(self):
        h0, _h1, _l3, latencies = self._build()
        result = h0.access(0x1000)
        assert result.level == "MEM"
        assert result.latency_cycles >= 100
        assert len(latencies) == 1

    def test_second_access_hits_l1(self):
        h0, _h1, _l3, _lat = self._build()
        h0.access(0x1000)
        result = h0.access(0x1000)
        assert result.level == "L1"
        assert result.latency_cycles == 2  # Table 2 L1 round trip

    def test_cross_core_supplies_from_cache(self):
        h0, h1, _l3, latencies = self._build()
        h0.access(0x1000)
        result = h1.access(0x1000)
        assert result.level in ("L3", "MEM")
        # The line was installed in the L3 by core 0's fill.
        assert result.level == "L3"

    def test_write_invalidates_remote(self):
        h0, h1, _l3, _lat = self._build()
        h0.access(0x1000)
        h1.access(0x1000, is_write=True)
        # Core 0's copy must be gone.
        assert h0.l1.peek(0x1000) is None

    def test_no_allocate_bypasses(self):
        h0, _h1, l3, _lat = self._build()
        h0.access(0x2000, allocate=False)
        assert h0.l1.peek(0x2000) is None
        assert l3.peek(0x2000) is None

    def test_stream_pages_matches_access_loop(self):
        """The fused page stream against one ``access`` per line: the
        same latencies, per-page sums, memory calls, lines and stats."""
        ppns, lines = [5, 5, 6, 900], range(0, 64, 3)
        runs = []
        for fused in (True, False):
            h0, h1, l3, latencies = self._build()
            h1.access(6 * 64 + 3)  # core 1 read it first: an L3 hit for core 0
            steps, pages = [], []
            if fused:
                h0.stream_pages(ppns, lines, "ksm", steps.append,
                                lambda total, misses: pages.append(
                                    (total, misses)))
            else:
                for ppn in ppns:
                    results = [h0.access(ppn * 64 + line, source="ksm")
                               for line in lines]
                    steps.extend(r.latency_cycles for r in results)
                    pages.append((sum(r.latency_cycles for r in results),
                                  sum(r.level == "MEM" for r in results)))
            runs.append((
                steps, pages, latencies,
                [[(addr, e.state, e.owner) for addr, e in s.items()]
                 for c in (h0.l1, h0.l2, l3) for s in c._sets],
                [vars(c.stats) for c in (h0.l1, h0.l2, l3)],
                h0.bus.snoop_probes,
            ))
        assert runs[0] == runs[1]
        steps, pages = runs[0][0], runs[0][1]
        assert sum(total for total, _ in pages) == sum(steps) > 0
        assert pages[1] == (2 * len(lines), 0)  # the repeat hits L1

    @pytest.mark.parametrize("fused", [False, True])
    def test_stalled_miss_releases_no_mshr(self, fused):
        """A miss that found every L2 MSHR busy acquired none, so it
        frees none: the held MSHRs stay held (``access`` and
        ``stream_pages`` alike)."""
        h0, _h1, _l3, _lat = self._build()
        l2 = h0.l2
        for _ in range(l2.mshrs):
            assert l2.acquire_mshr()
        if fused:
            steps = []
            h0.stream_pages([0x40], [0], "ksm", steps.append,
                            lambda total, misses: None)
            latency = steps[0]
        else:
            result = h0.access(0x40 * 64, source="ksm")
            assert result.mshr_stall
            latency = result.latency_cycles
        assert l2._outstanding == l2.mshrs
        # The stall still costs one L2 round trip of retry delay.
        assert latency == 20 + 100 + 6
        # With a free MSHR the miss acquires and releases it.
        l2.release_mshr()
        h0.access(0x41 * 64, source="ksm")
        assert l2._outstanding == l2.mshrs - 1
