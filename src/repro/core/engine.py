"""The PageForge comparator state machine (Sections 3.2 and 3.3).

Given a filled Scan Table, the engine compares the candidate page against
the entry pointed to by ``Ptr``, line by line in lockstep.  Each line
fetch goes to the on-chip network first (a snoop probe); only on a miss
does it enter the memory controller's read path, where it may coalesce
with pending requests.  The outcome of each page comparison steers ``Ptr``
through the ``Less``/``More`` links.  ECC codes of candidate lines at the
configured hash offsets are snatched as they stream past, assembling the
hash key in the background; Duplicate or Last-Refill forces completion.

The engine never installs lines into any cache and never appears as a
sharer — it is not part of the coherence protocol (Section 3.5).
"""

from dataclasses import dataclass, field

import numpy as np

from repro.common.config import PageForgeConfig
from repro.common.units import LINES_PER_PAGE
from repro.core.hashkey import ECCHashKeyGenerator
from repro.core.scan_table import (
    ScanTable,
    ScanTableCorruption,
    pointer_sane,
)
from repro.mem.requests import AccessSource


@dataclass
class PageForgeStats:
    """Hardware activity counters (feeds Table 5 and Figure 11)."""

    tables_processed: int = 0
    page_comparisons: int = 0
    duplicates_found: int = 0
    lines_fetched: int = 0
    lines_from_network: int = 0
    lines_from_dram: int = 0
    lines_coalesced: int = 0
    line_pairs_compared: int = 0
    hash_keys_completed: int = 0
    hash_fill_reads: int = 0
    total_cycles: int = 0
    table_cycles: list = field(default_factory=list)

    @property
    def mean_table_cycles(self):
        if not self.table_cycles:
            return 0.0
        return float(np.mean(self.table_cycles))

    @property
    def std_table_cycles(self):
        if not self.table_cycles:
            return 0.0
        return float(np.std(self.table_cycles))


class PageForgeEngine:
    """One PageForge module, resident in its home memory controller."""

    #: ALU cycles to compare one 64 B line pair (512-bit datapath).
    COMPARE_CYCLES_PER_LINE = 8
    #: Round-trip cycles for a line serviced from the on-chip network.
    NETWORK_LINE_CYCLES = 30

    def __init__(self, controller, bus=None, config=None, line_sampling=1):
        self.controller = controller
        self.bus = bus
        self.config = config or PageForgeConfig()
        self.table = ScanTable(self.config.other_pages_entries)
        self.keygen = ECCHashKeyGenerator(
            self.config.ecc_hash_line_offsets, self.config.minikey_bits
        )
        self.stats = PageForgeStats()
        self.busy = False
        # Optional fault-injection hook (repro.faults.injector): called
        # once per walk step as hook(table, current_ptr) and free to
        # corrupt Less/More indices or drop V bits.  Models SEUs in the
        # Scan-Table SRAM; the walk guards below turn the damage into a
        # typed ScanTableCorruption instead of a hang.
        self.walk_fault_hook = None
        # Optional verification hook (repro.verify.invariants): called
        # as hook(self.table) after every completed process_table, once
        # the Scanned bit is set and the table is stable.
        self.audit_hook = None
        # line_sampling > 1 switches the comparator to a faster model:
        # the comparison outcome is computed exactly, but only every Nth
        # line takes the fully timed fetch path (the rest are accounted
        # in bulk).  Semantics are identical; only per-line timing is
        # interpolated.  Large timing simulations use this.
        self.line_sampling = max(1, int(line_sampling))

    # Line fetch path (Section 3.2.2) ------------------------------------------------

    def _fetch_line(self, ppn, line_index, time_seconds, is_candidate):
        """Fetch one line; returns (data, latency_cycles).

        The request is issued to the on-chip network first; if some cache
        can supply it, the response flows through the MC's ECC encoder.
        Otherwise it goes to DRAM (possibly coalescing with a pending
        request) and the stored ECC code arrives with the data.
        """
        from_network = False
        if self.bus is not None:
            probe = self.bus.probe(ppn * 64 + line_index)
            from_network = probe.hit
        request, data, ecc_code = self.controller.read_line(
            ppn,
            line_index,
            AccessSource.PAGEFORGE,
            time_seconds,
            serviced_from_network=from_network,
        )
        self.stats.lines_fetched += 1
        if from_network:
            self.stats.lines_from_network += 1
            latency = self.NETWORK_LINE_CYCLES
        else:
            self.stats.lines_from_dram += 1
            latency = request.latency
            if request.coalesced:
                self.stats.lines_coalesced += 1
        if is_candidate:
            self.keygen.observe(line_index, ecc_code)
        return data, latency

    def _dram_only(self, ppns, lines):
        """Whether ``lines`` of ``ppns`` can be read in one controller call.

        True when no fault hook is armed, ECC verification is off, and no
        cache holds any of the lines (the bus counts the probes): then
        every request goes to DRAM, and :meth:`_fetch_lines` gives the
        per-line path's results.
        """
        controller = self.controller
        return (
            controller.fault_hook is None
            and not controller.verify_ecc
            and (self.bus is None or self.bus.probe_all_miss(ppns, lines))
        )

    def _fetch_lines(self, ppns, lines, time_seconds, step_cycles,
                     missing):
        """Fetch ``lines`` of ``ppns`` from DRAM in one controller call.

        ``ppns[0]`` is the candidate; ``missing`` are the hash-key lines
        still unobserved.  Returns each line's latency (the slowest
        page's); the clock advances by it plus ``step_cycles`` per line,
        as in the per-line loops.
        """
        controller = self.controller
        coalesced_before = controller.stats.coalesced_requests
        latencies, codes = controller.read_page_lines(
            ppns, lines, AccessSource.PAGEFORGE, time_seconds, step_cycles,
            code_lines=missing,
        )
        n = len(ppns) * len(lines)
        self.stats.lines_fetched += n
        self.stats.lines_from_dram += n
        self.stats.lines_coalesced += (
            controller.stats.coalesced_requests - coalesced_before
        )
        for line, code in codes.items():
            self.keygen.observe(line, code)
        return latencies

    # Page comparison ------------------------------------------------------------------

    def _compare_with_entry(self, candidate_ppn, other_ppn, time_seconds):
        """Lockstep line-by-line comparison; returns (sign, cycles).

        A single line from each page is compared at a time; the offset is
        shared between the two requests (Section 3.2.1).  The comparison
        stops at the first differing line.
        """
        if self.line_sampling > 1:
            return self._compare_sampled(
                candidate_ppn, other_ppn, time_seconds
            )
        cycles = 0
        frequency = self.controller.dram.cpu_frequency_hz
        for line_index in range(LINES_PER_PAGE):
            now = time_seconds + cycles / frequency
            data_a, lat_a = self._fetch_line(
                candidate_ppn, line_index, now, is_candidate=True
            )
            data_b, lat_b = self._fetch_line(
                other_ppn, line_index, now, is_candidate=False
            )
            cycles += max(lat_a, lat_b) + self.COMPARE_CYCLES_PER_LINE
            self.stats.line_pairs_compared += 1
            if not np.array_equal(data_a, data_b):
                diffs = np.nonzero(data_a != data_b)[0]
                first = int(diffs[0])
                sign = -1 if data_a[first] < data_b[first] else 1
                return sign, cycles
        return 0, cycles

    def _compare_sampled(self, candidate_ppn, other_ppn, time_seconds):
        """Sampled-timing comparison: exact outcome, interpolated cost."""
        memory = self.controller.memory
        a = memory.frame(candidate_ppn).data
        b = memory.frame(other_ppn).data
        diffs = np.nonzero(a != b)[0]
        if diffs.size == 0:
            sign, lines = 0, LINES_PER_PAGE
        else:
            first = int(diffs[0])
            sign = -1 if a[first] < b[first] else 1
            lines = first // 64 + 1

        sampled = set(range(0, lines, self.line_sampling))
        # Lines the hash key still needs must take the real path so the
        # ECC code is observed (the hardware sees them regardless).
        missing = self.keygen.missing_lines()
        for line in missing:
            if line < lines:
                sampled.add(line)
        sampled = sorted(sampled)
        pair = (candidate_ppn, other_ppn)
        if self._dram_only(pair, sampled):
            lat_total = sum(self._fetch_lines(
                pair, sampled, time_seconds, self.COMPARE_CYCLES_PER_LINE,
                missing,
            ))
            cycles = lat_total + len(sampled) * self.COMPARE_CYCLES_PER_LINE
        else:
            frequency = self.controller.dram.cpu_frequency_hz
            lat_total = 0
            cycles = 0
            for line in sampled:
                now = time_seconds + cycles / frequency
                _da, lat_a = self._fetch_line(
                    candidate_ppn, line, now, is_candidate=True
                )
                _db, lat_b = self._fetch_line(
                    other_ppn, line, now, is_candidate=False
                )
                pair_lat = max(lat_a, lat_b)
                lat_total += pair_lat
                cycles += pair_lat + self.COMPARE_CYCLES_PER_LINE
        est_per_line = lat_total / max(1, len(sampled))
        skipped = lines - len(sampled)
        cycles += int(
            skipped * (est_per_line + self.COMPARE_CYCLES_PER_LINE)
        )
        # Bulk-account the skipped fetches (they overwhelmingly come
        # from DRAM: the comparator streams cold pages).
        if skipped > 0:
            n = 2 * skipped
            self.stats.lines_fetched += n
            self.stats.lines_from_dram += n
            dram = self.controller.dram
            dram.stats.bytes_by_source["pageforge"] += n * 64
            dram.bandwidth.record(time_seconds, n * 64, "pageforge")
        self.stats.line_pairs_compared += lines
        return sign, cycles

    # Hash-key completion -----------------------------------------------------------------

    def _complete_hash_key(self, candidate_ppn, time_seconds):
        """Fetch any hash-offset lines the comparisons did not cover."""
        missing = self.keygen.missing_lines()
        if self._dram_only((candidate_ppn,), missing):
            self.stats.hash_fill_reads += len(missing)
            return sum(self._fetch_lines(
                (candidate_ppn,), missing, time_seconds, 0, missing
            ))
        cycles = 0
        frequency = self.controller.dram.cpu_frequency_hz
        for line_index in missing:
            now = time_seconds + cycles / frequency
            _data, lat = self._fetch_line(
                candidate_ppn, line_index, now, is_candidate=True
            )
            self.stats.hash_fill_reads += 1
            cycles += lat
        return cycles

    # The state machine ----------------------------------------------------------------------

    def process_table(self, time_seconds=0.0):
        """Run until the Scanned bit sets; returns cycles consumed.

        Requires a valid PFE entry.  On return either Duplicate is set
        (``Ptr`` names the matching entry) or the walk fell off the table
        (``Ptr`` holds an invalid index / miss sentinel).
        """
        pfe = self.table.pfe
        if not pfe.valid:
            raise RuntimeError("PFE entry invalid; fill the Scan Table first")
        self.busy = True
        cycles = 0
        frequency = self.controller.dram.cpu_frequency_hz
        visited = set()
        try:
            while self.table.index_valid(pfe.ptr):
                if pfe.ptr in visited:
                    raise ScanTableCorruption(
                        f"Less/More cycle through entry {pfe.ptr}",
                        ptr=pfe.ptr,
                    )
                visited.add(pfe.ptr)
                if self.walk_fault_hook is not None:
                    self.walk_fault_hook(self.table, pfe.ptr)
                    if not self.table.index_valid(pfe.ptr):
                        # The entry under comparison lost its V bit: its
                        # fields are garbage now, abort rather than read.
                        raise ScanTableCorruption(
                            f"entry {pfe.ptr} invalidated under the walk",
                            ptr=pfe.ptr,
                        )
                entry = self.table.entry(pfe.ptr)
                now = time_seconds + cycles / frequency
                sign, compare_cycles = self._compare_with_entry(
                    pfe.ppn, entry.ppn, now
                )
                cycles += compare_cycles
                self.stats.page_comparisons += 1
                if sign == 0:
                    pfe.duplicate = True
                    self.stats.duplicates_found += 1
                    break
                nxt = entry.less if sign < 0 else entry.more
                if not pointer_sane(nxt, self.table.n_entries):
                    raise ScanTableCorruption(
                        f"entry {pfe.ptr} {'Less' if sign < 0 else 'More'} "
                        f"holds undecodable index {nxt}",
                        ptr=nxt,
                    )
                pfe.ptr = nxt

            # Duplicate found or last batch: force hash-key completion.
            if (pfe.last_refill or pfe.duplicate) and not self.keygen.ready:
                now = time_seconds + cycles / frequency
                cycles += self._complete_hash_key(pfe.ppn, now)
        finally:
            # A fault abort (table corruption, uncorrectable line, dropped
            # request) must leave the engine triggerable for the retry.
            self.busy = False
        if self.keygen.ready and not pfe.hash_ready:
            pfe.hash_key = self.keygen.key()
            pfe.hash_ready = True
            self.stats.hash_keys_completed += 1

        pfe.scanned = True
        self.stats.tables_processed += 1
        self.stats.total_cycles += cycles
        self.stats.table_cycles.append(cycles)
        if self.audit_hook is not None:
            self.audit_hook(self.table)
        self.controller.expire_pending(
            time_seconds + cycles / frequency
        )
        return cycles

    # Candidate lifecycle --------------------------------------------------------------------

    def new_candidate(self):
        """Reset per-candidate state (called by insert_PFE)."""
        self.keygen.reset()

    def set_hash_offsets(self, line_offsets):
        """Reconfigure the ECC hash-key offsets (update_ECC_offset)."""
        if self.busy:
            raise RuntimeError("cannot change offsets while scanning")
        self.keygen = ECCHashKeyGenerator(
            tuple(line_offsets), self.config.minikey_bits
        )
