"""The software scanner's cost model: CPU cycles and memory stalls.

:class:`CacheCostSink` streams the KSM daemon's touched lines through
the real cache hierarchy of whichever core currently hosts the ksmd
thread, so the stall cycles and L3 displacement of scanning are
*measured* rather than assumed — the pollution mechanism of Section
3.1.  Each daemon hook is one
:meth:`~repro.cache.hierarchy.CoreCacheHierarchy.stream_pages` call over
all of the hook's pages; per-line ``access`` calls stay the scalar
reference it is tested against.  :func:`floored_scan_stalls` is the
bulk estimate for software scans with no sink wired (ESX-style merging,
PageForge's degraded intervals), and :func:`software_scan_cycles` is
the CPU side every software scan interval shares.
"""

import math

from repro.ksm.daemon import node_ppn_resolver

#: Per-candidate bookkeeping cycles of the KSM daemon: rmap lookup,
#: page-table walks, tree maintenance, locking — the ~33% "other" share
#: of the paper's Table 4.
KSM_CYCLES_PER_PAGE = 20_000.0


def software_scan_cycles(compare_bytes, hash_bytes, pages_scanned,
                         cycles_per_page=KSM_CYCLES_PER_PAGE):
    """``(compare, hash, other)`` CPU cycles of one software scan interval.

    Word-wise memcmp at 8 B/cycle over both pages, jhash2 at ~3
    cycles/byte (the kernel routine's measured rate), and per-candidate
    bookkeeping plus a fixed per-interval wake cost.  Memory stalls are
    not included: a cache sink measures them or
    :func:`floored_scan_stalls` estimates them.
    """
    compare = compare_bytes * 2 / 6.0
    hashing = float(hash_bytes) * 3.0
    other = pages_scanned * cycles_per_page + 2000.0
    return compare, hashing, other


def floored_scan_stalls(system, stream_bytes, now):
    """Stall cycles of ``stream_bytes`` streamed with no cache sink.

    The miss fraction is the full-scale floor (the sink floors its
    measured fraction the same way); the misses are recorded as ksm
    DRAM traffic and the whole stream as L3 pollution.
    """
    scale = system.scale
    lines = stream_bytes // 64
    miss_cost = (
        scale.core_memory_overhead_cycles + scale.dram_latency_cycles
    )
    stalls = lines * scale.scan_miss_floor * miss_cost
    dram_bytes = int(lines * 64 * scale.scan_miss_floor)
    if dram_bytes:
        system.dram.stats.bytes_by_source["ksm"] += dram_bytes
        system.dram.bandwidth.record(system._mem_now, dram_bytes, "ksm")
    system.add_pollution(lines * 64, now)
    return stalls


class CacheCostSink:
    """Streams the KSM daemon's touched lines through real caches.

    Every byte the software daemon compares or hashes moves through the
    L1/L2 of the core currently hosting the ksmd thread and through the
    shared L3 — this is the pollution mechanism of Section 3.1, and the
    stall cycles accumulated here become part of the daemon's occupancy.
    """

    #: One in SAMPLE lines takes the full (timed) L1/L2/L3/DRAM path;
    #: the rest are accounted in bulk (stall cycles and DRAM bytes are
    #: extrapolated from the sampled lines' hit/miss mix).
    SAMPLE = 16

    def __init__(self, system):
        self.system = system
        self._resolve_ppns = node_ppn_resolver(system.hypervisor)
        self.reset()

    def reset(self):
        self.stall_cycles = 0.0
        self.stalls_by_category = {"compare": 0.0, "hash": 0.0}
        self.lines_streamed = 0

    def _stream(self, ppns, n_lines, category):
        """Stream the sampled lines of each page in ``ppns``, in order."""
        system = self.system
        scale = system.scale
        memmodel = system.memmodel
        dram = system.dram
        # No hook touches more than a page, so the offsets stay in it.
        lines = range(0, n_lines, self.SAMPLE)
        sampled = len(lines)
        unsampled = n_lines - sampled
        floor = scale.scan_miss_floor
        miss_cost = (
            scale.core_memory_overhead_cycles + scale.dram_latency_cycles
        )
        stalls = self.stalls_by_category

        def on_page(sampled_stall, sampled_misses):
            # Extrapolate the unsampled lines from the sampled hit/miss
            # mix, flooring the miss fraction at the full-scale value
            # (the paper's scanned set vastly exceeds the L3; a
            # scaled-down image's tree pages would otherwise stay
            # resident and flatter the daemon).
            measured_miss = sampled_misses / sampled
            stall = sampled_stall * n_lines / sampled
            if measured_miss < floor:
                stall += (floor - measured_miss) * n_lines * miss_cost
            self.stall_cycles += stall
            stalls[category] = stalls.get(category, 0.0) + stall
            if unsampled > 0:
                dram_bytes = int(
                    unsampled * 64 * max(measured_miss, floor)
                )
                if dram_bytes:
                    dram.stats.bytes_by_source["ksm"] += dram_bytes
                    dram.bandwidth.record(memmodel.now_s, dram_bytes, "ksm")

        system.hierarchies[system.ksm_core].stream_pages(
            ppns, lines, "ksm", memmodel.advance, on_page
        )
        self.lines_streamed += n_lines * len(ppns)

    def on_walk(self, candidate_ppn, outcome):
        path = outcome.path
        if not path:
            return
        per_node_bytes = outcome.bytes_compared / len(path)
        n_lines = max(1, math.ceil(per_node_bytes / 64))
        # The walk appended each node after its key resolved, so none
        # is stale here.  The candidate's lines are re-read per node
        # comparison but stay L1-resident after the first pass; stream
        # them once, last.
        ppns = self._resolve_ppns(path)
        ppns.append(candidate_ppn)
        self._stream(ppns, n_lines, "compare")

    def on_hash_bytes(self, ppn, n_bytes):
        self._stream((ppn,), max(1, math.ceil(n_bytes / 64)), "hash")

    def on_merge_verify(self, ppn_a, ppn_b, n_bytes):
        self._stream((ppn_a, ppn_b), max(1, math.ceil(n_bytes / 64)),
                     "compare")
