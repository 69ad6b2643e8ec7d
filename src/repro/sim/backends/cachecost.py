"""The software scanner's cost model: CPU cycles and memory stalls.

:class:`CacheCostSink` streams the KSM daemon's touched lines through
the real cache hierarchy of whichever core currently hosts the ksmd
thread, so the stall cycles and L3 displacement of scanning are
*measured* rather than assumed — the pollution mechanism of Section
3.1.  :func:`floored_scan_stalls` is the bulk estimate for software
scans with no sink wired (ESX-style merging, PageForge's degraded
intervals), and :func:`software_scan_cycles` is the CPU side every
software scan interval shares.
"""

import math

from repro.ksm.daemon import StaleNodeError

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
        self.category = "other"
        self.reset()

    def reset(self):
        self.stall_cycles = 0.0
        self.stalls_by_category = {"compare": 0.0, "hash": 0.0}
        self.lines_streamed = 0

    def _stream(self, ppn, n_lines, start_line=0):
        system = self.system
        hierarchy = system.hierarchies[system.ksm_core]
        sample = self.SAMPLE
        base = ppn * 64
        sampled = 0
        sampled_misses = 0
        sampled_stall = 0
        for i in range(0, n_lines, sample):
            addr = base + ((start_line + i) % 64)
            result = hierarchy.access(addr, is_write=False, source="ksm")
            sampled += 1
            sampled_stall += result.latency_cycles
            if result.level == "MEM":
                sampled_misses += 1
            system.advance_mem_clock(result.latency_cycles)
        if sampled == 0:
            return
        # Extrapolate the unsampled lines from the sampled hit/miss mix,
        # flooring the miss fraction at the full-scale value (the paper's
        # scanned set vastly exceeds the L3; a scaled-down image's tree
        # pages would otherwise stay resident and flatter the daemon).
        measured_miss = sampled_misses / sampled
        floor = system.scale.scan_miss_floor
        miss_frac = max(measured_miss, floor)
        stall = sampled_stall * n_lines / sampled
        if measured_miss < floor:
            extra_misses = (floor - measured_miss) * n_lines
            miss_cost = (
                system.scale.core_memory_overhead_cycles
                + system.scale.dram_latency_cycles
            )
            stall += extra_misses * miss_cost
        self.stall_cycles += stall
        self.stalls_by_category[self.category] = (
            self.stalls_by_category.get(self.category, 0.0) + stall
        )
        unsampled = n_lines - sampled
        if unsampled > 0:
            dram_bytes = int(unsampled * 64 * miss_frac)
            if dram_bytes:
                system.dram.stats.bytes_by_source["ksm"] += dram_bytes
                system.dram.bandwidth.record(
                    system._mem_now, dram_bytes, "ksm"
                )
        self.lines_streamed += n_lines

    def _node_ppn(self, node):
        payload = node.payload
        hyp = self.system.hypervisor
        try:
            if payload[0] == "stable":
                if hyp.memory.is_allocated(payload[1]):
                    return payload[1]
                return None
            _tag, vm_id, gpn = payload
            vm = hyp.vms.get(vm_id)
            if vm is not None and vm.is_mapped(gpn):
                return vm.mapping(gpn).ppn
        except (KeyError, StaleNodeError):
            pass
        return None

    def on_walk(self, candidate_ppn, outcome):
        self.category = "compare"
        if not outcome.path:
            return
        per_node_bytes = outcome.bytes_compared / len(outcome.path)
        n_lines = max(1, math.ceil(per_node_bytes / 64))
        for node in outcome.path:
            node_ppn = self._node_ppn(node)
            if node_ppn is not None:
                self._stream(node_ppn, n_lines)
        # The candidate's lines are re-read per node comparison but stay
        # L1-resident after the first pass; stream them once.
        self._stream(candidate_ppn, n_lines)

    def on_hash_bytes(self, ppn, n_bytes):
        self.category = "hash"
        self._stream(ppn, max(1, math.ceil(n_bytes / 64)))

    def on_merge_verify(self, ppn_a, ppn_b, n_bytes):
        self.category = "compare"
        n_lines = max(1, math.ceil(n_bytes / 64))
        self._stream(ppn_a, n_lines)
        self._stream(ppn_b, n_lines)
