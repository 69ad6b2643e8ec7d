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
from repro.common.units import CACHE_LINE_BYTES, LINES_PER_PAGE
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

    def _read_per_line(self, ppns, lines, time_seconds, step_cycles):
        """Fetch ``lines`` of ``ppns`` through :meth:`_fetch_line`.

        The scalar reference of ``PageReadSession.read``: per line, each
        page in order (``ppns[0]`` is the candidate), all issued at the
        same time, which then advances by the slowest latency plus
        ``step_cycles``.  Yields ``(data_per_page, latency)`` per line.
        """
        fetch = self._fetch_line
        frequency = self.controller.dram.cpu_frequency_hz
        cycles = 0
        for line in lines:
            now = time_seconds + cycles / frequency
            data = []
            latency = 0
            for ppn in ppns:
                page_data, page_latency = fetch(ppn, line, now, not data)
                data.append(page_data)
                if page_latency > latency:
                    latency = page_latency
            yield data, latency
            cycles += latency + step_cycles

    # Page comparison ------------------------------------------------------------------

    def _compare_lockstep(self, candidate_ppn, other_ppn, time_seconds):
        """Exact comparison on the fetched data; returns (sign, cycles).

        A single line from each page is compared at a time; the offset is
        shared between the two requests (Section 3.2.1).  The comparison
        stops at the first differing line.  Armed hosts at
        ``line_sampling=1`` compare this way, so that read-path faults
        reach the outcome.
        """
        cycles = 0
        step = self.COMPARE_CYCLES_PER_LINE
        lines = self._read_per_line(
            (candidate_ppn, other_ppn), range(LINES_PER_PAGE), time_seconds,
            step,
        )
        for (data_a, data_b), latency in lines:
            cycles += latency + step
            self.stats.line_pairs_compared += 1
            if not np.array_equal(data_a, data_b):
                first = int(np.nonzero(data_a != data_b)[0][0])
                return (-1 if data_a[first] < data_b[first] else 1), cycles
        return 0, cycles

    # The state machine ----------------------------------------------------------------------

    def process_table(self, time_seconds=0.0):
        """Run until the Scanned bit sets; returns cycles consumed.

        Requires a valid PFE entry.  On return either Duplicate is set
        (``Ptr`` names the matching entry) or the walk fell off the table
        (``Ptr`` holds an invalid index / miss sentinel).

        Each comparison's outcome comes from the frames' contents (the
        first differing byte); the lines up to it are fetched, every
        ``line_sampling``-th one timed along with the hash-key lines
        still missing, and the rest accounted at the sampled mean.  The
        reads go through one :class:`~repro.mem.controller.PageReadSession`
        per table, whose counters and the engine's line counters are
        flushed once, also when the walk raises.  The per-line
        :meth:`_fetch_line` path reads instead when a fault hook is
        armed, ECC verification is on, or a cache holds one of the lines.
        """
        table = self.table
        pfe = table.pfe
        if not pfe.valid:
            raise RuntimeError("PFE entry invalid; fill the Scan Table first")
        stats = self.stats
        keygen = self.keygen
        controller = self.controller
        memory = controller.memory
        frequency = controller.dram.cpu_frequency_hz
        sampling = self.line_sampling
        step = self.COMPARE_CYCLES_PER_LINE
        armed = (
            controller.fault_hook is not None
            or controller.verify_ecc
            or self.walk_fault_hook is not None
        )
        lockstep = armed and sampling == 1
        walk_fault_hook = self.walk_fault_hook
        bus = self.bus
        presence = bus.presence if bus is not None else {}
        session = controller.read_session(AccessSource.PAGEFORGE)
        candidate_ppn = pfe.ppn
        candidate = memory.frame(candidate_ppn)
        candidate_data = candidate.data
        candidate_base = candidate_ppn * LINES_PER_PAGE
        # The hash-key lines not observed yet.
        wanted = keygen.missing_lines()
        entries = table.entries
        n_entries = table.n_entries
        ptr = pfe.ptr
        # Lines read through the session (one snoop probe each) and lines
        # accounted at the sampled mean; flushed with the session.
        timed = untimed = coalesced = pairs = 0
        cycles = 0
        visited = set()
        self.busy = True
        try:
            # table.index_valid(ptr), inlined.
            while 0 <= ptr < n_entries and entries[ptr].valid:
                if ptr in visited:
                    raise ScanTableCorruption(
                        f"Less/More cycle through entry {ptr}", ptr=ptr,
                    )
                visited.add(ptr)
                if walk_fault_hook is not None:
                    walk_fault_hook(table, ptr)
                    if not table.index_valid(ptr):
                        # The entry under comparison lost its V bit: its
                        # fields are garbage now, abort rather than read.
                        raise ScanTableCorruption(
                            f"entry {ptr} invalidated under the walk",
                            ptr=ptr,
                        )
                entry = entries[ptr]
                now = time_seconds + cycles / frequency
                if lockstep:
                    sign, compare_cycles = self._compare_lockstep(
                        candidate_ppn, entry.ppn, now
                    )
                    cycles += compare_cycles
                else:
                    other = memory.frame(entry.ppn)
                    other_data = other.data
                    # argmax stops at the first True: the first
                    # differing byte, or 0 for equal pages.
                    neq = candidate_data != other_data
                    first = int(neq.argmax())
                    if neq[first]:
                        sign = (-1 if candidate_data[first] < other_data[first]
                                else 1)
                        n_lines = first // 64 + 1
                    else:
                        sign, n_lines = 0, LINES_PER_PAGE
                    sampled = range(0, n_lines, sampling)
                    # Hash-key lines the key still needs take the timed
                    # path too (the hardware sees them regardless).
                    missing = (
                        [line for line in wanted if line < n_lines]
                        if wanted else wanted
                    )
                    if missing and sampling > 1:
                        extra = [line for line in missing if line % sampling]
                        if extra:
                            sampled = sorted([*sampled, *extra])
                    n_sampled = len(sampled)
                    other_base = entry.ppn * LINES_PER_PAGE
                    if armed or (presence and any(
                        candidate_base + line in presence
                        or other_base + line in presence
                        for line in sampled
                    )):
                        coalesced += session.flush()
                        latency = sum(
                            line_latency for _data, line_latency
                            in self._read_per_line(
                                (candidate_ppn, entry.ppn), sampled, now, step
                            )
                        )
                        wanted = keygen.missing_lines()
                    else:
                        latency = session.read(
                            (candidate, other), sampled, now, step
                        )
                        timed += 2 * n_sampled
                        if missing:
                            codes = candidate.ecc_codes
                            for line in missing:
                                keygen.observe(line, codes[line])
                            wanted = keygen.missing_lines()
                    cycles += latency + n_sampled * step
                    skipped = n_lines - n_sampled
                    if skipped:
                        # The unsampled lines cost the sampled mean; their
                        # fetches come from DRAM (the comparator streams
                        # cold pages).
                        cycles += int(skipped * (latency / n_sampled + step))
                        untimed += 2 * skipped
                        session.add_traffic(
                            now, 2 * skipped * CACHE_LINE_BYTES
                        )
                    pairs += n_lines
                stats.page_comparisons += 1
                if sign == 0:
                    pfe.duplicate = True
                    stats.duplicates_found += 1
                    break
                nxt = entry.less if sign < 0 else entry.more
                if not (0 <= nxt < n_entries
                        or pointer_sane(nxt, n_entries)):
                    raise ScanTableCorruption(
                        f"entry {ptr} {'Less' if sign < 0 else 'More'} "
                        f"holds undecodable index {nxt}",
                        ptr=nxt,
                    )
                pfe.ptr = ptr = nxt

            # Duplicate found or last batch: force hash-key completion,
            # fetching the hash-offset lines the comparisons did not cover.
            if (pfe.last_refill or pfe.duplicate) and not keygen.ready:
                now = time_seconds + cycles / frequency
                missing = keygen.missing_lines()
                if armed or any(
                    candidate_base + line in presence for line in missing
                ):
                    coalesced += session.flush()
                    for _data, latency in self._read_per_line(
                        (candidate_ppn,), missing, now, 0
                    ):
                        stats.hash_fill_reads += 1
                        cycles += latency
                else:
                    stats.hash_fill_reads += len(missing)
                    cycles += session.read((candidate,), missing, now, 0)
                    timed += len(missing)
                    codes = candidate.ecc_codes
                    for line in missing:
                        keygen.observe(line, codes[line])
        finally:
            # A fault abort (table corruption, uncorrectable line, dropped
            # request) must leave the engine triggerable for the retry,
            # with every completed read accounted.
            self.busy = False
            coalesced += session.flush()
            stats.lines_fetched += timed + untimed
            stats.lines_from_dram += timed + untimed
            stats.lines_coalesced += coalesced
            stats.line_pairs_compared += pairs
            if bus is not None:
                bus.snoop_probes += timed
        if keygen.ready and not pfe.hash_ready:
            pfe.hash_key = keygen.key()
            pfe.hash_ready = True
            stats.hash_keys_completed += 1

        pfe.scanned = True
        stats.tables_processed += 1
        stats.total_cycles += cycles
        stats.table_cycles.append(cycles)
        if self.audit_hook is not None:
            self.audit_hook(table)
        controller.expire_pending(time_seconds + cycles / frequency)
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
