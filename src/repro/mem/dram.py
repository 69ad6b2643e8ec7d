"""DDR-style DRAM model: geometry, row-buffer timing, bandwidth accounting.

The evaluation machine (Table 2) has 16 GB over 2 channels, 8 ranks per
channel, and 8 banks per rank at 1 GHz DDR.  The model keeps per-bank open
rows (open-page policy) and charges row-hit or row-miss latencies per line
access, while accumulating transferred bytes into time windows so the
"most memory-intensive phase" bandwidth of Figure 11 can be extracted.
"""

from collections import defaultdict
from dataclasses import dataclass, field

from repro.common.config import DRAMConfig
from repro.common.units import CACHE_LINE_BYTES


@dataclass
class DRAMStats:
    """Aggregate DRAM activity counters."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    bytes_by_source: dict = field(default_factory=lambda: defaultdict(int))

    @property
    def total_bytes(self):
        return sum(self.bytes_by_source.values())

    @property
    def row_hit_rate(self):
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class BandwidthWindow:
    """Byte counts bucketed into fixed-width windows of simulated time.

    ``peak_gbps`` reports the busiest window — the paper's Figure 11
    measures bandwidth "during the most memory-intensive phase of the page
    deduplication process".
    """

    def __init__(self, window_seconds=0.005):
        if window_seconds <= 0:
            raise ValueError("window must be positive")
        self.window_seconds = float(window_seconds)
        self._buckets = defaultdict(lambda: defaultdict(int))
        # Running per-bucket totals, maintained on record() so the
        # queries below (and the contention model, which runs per cache
        # miss) never re-sum the per-source maps.
        self._totals = defaultdict(int)

    def record(self, time_seconds, n_bytes, source):
        bucket = int(time_seconds / self.window_seconds)
        n_bytes = int(n_bytes)
        self._buckets[bucket][source] += n_bytes
        self._totals[bucket] += n_bytes

    def record_buckets(self, bucket_bytes, source):
        """Add ``{bucket: n_bytes}`` as ``record`` calls would, in order."""
        buckets, totals = self._buckets, self._totals
        for bucket, n_bytes in bucket_bytes.items():
            buckets[bucket][source] += n_bytes
            totals[bucket] += n_bytes

    def peak_gbps(self):
        """Peak bandwidth over any window, in GB/s (decimal)."""
        if not self._totals:
            return 0.0
        return max(self._totals.values()) / self.window_seconds / 1e9

    def peak_window_breakdown(self):
        """(start_seconds, {source: gbps}) of the busiest window."""
        if not self._totals:
            return 0.0, {}
        bucket = max(self._totals, key=self._totals.get)
        return (
            bucket * self.window_seconds,
            {
                src: n / self.window_seconds / 1e9
                for src, n in self._buckets[bucket].items()
            },
        )

    def mean_gbps(self):
        """Average bandwidth across the observed span, in GB/s."""
        if not self._totals:
            return 0.0
        span = (max(self._totals) - min(self._totals) + 1) * self.window_seconds
        return sum(self._totals.values()) / span / 1e9

    def recent_bytes(self, time_seconds):
        """Bytes attributable to the sliding window ending at ``time_seconds``.

        The current bucket counts in full; the previous bucket is
        weighted by how much of it the sliding window still covers.
        O(1) — the contention model calls this once per L3 miss.
        """
        totals = self._totals
        position = time_seconds / self.window_seconds
        bucket = int(position)
        recent = totals.get(bucket, 0)
        previous = totals.get(bucket - 1)
        if previous:
            recent += int(previous * (1 - (position - bucket)))
        return recent


class DRAMModel:
    """Open-page DRAM with per-bank row state and per-line access timing."""

    def __init__(self, config=None, cpu_frequency_hz=2e9):
        self.config = config or DRAMConfig()
        self.cpu_frequency_hz = float(cpu_frequency_hz)
        self._cycle_ratio = self.cpu_frequency_hz / self.config.frequency_hz
        self.stats = DRAMStats()
        self.bandwidth = BandwidthWindow()
        # open row per (channel, rank, bank); -1 = closed
        n_banks = (
            self.config.channels
            * self.config.ranks_per_channel
            * self.config.banks_per_rank
        )
        self._open_rows = [-1] * n_banks
        # Line transfer: 64 B over (bus_bytes x data_rate) per mem cycle.
        self._transfer_cycles = CACHE_LINE_BYTES / (
            self.config.bus_bytes * self.config.data_rate
        )
        # CPU-cycle latency of each row-buffer outcome of a line access:
        # (hit, closed bank, row conflict).  Public for callers that
        # inline the access (the controller's read session).
        cfg = self.config
        transfer = self._transfer_cycles
        self.row_cycles = tuple(
            int(round(mem_cycles * self._cycle_ratio))
            for mem_cycles in (
                cfg.t_cas + transfer,
                0 + cfg.t_rcd + cfg.t_cas + transfer,
                cfg.t_rp + cfg.t_rcd + cfg.t_cas + transfer,
            )
        )

    # Address mapping -----------------------------------------------------------

    def map_line(self, ppn, line_index):
        """(channel, global_bank_index, row) for a line address.

        Lines are interleaved across channels, then across banks, which is
        the high-parallelism mapping the paper assumes (Section 4.1 notes
        pages are interleaved across controllers/channels/ranks/banks).
        """
        line_addr = ppn * 64 + line_index
        channel = line_addr % self.config.channels
        per_channel = line_addr // self.config.channels
        banks_per_channel = (
            self.config.ranks_per_channel * self.config.banks_per_rank
        )
        bank_in_channel = per_channel % banks_per_channel
        global_bank = channel * banks_per_channel + bank_in_channel
        lines_per_row = self.config.row_bytes // CACHE_LINE_BYTES
        row = per_channel // banks_per_channel // lines_per_row
        return channel, global_bank, row

    # Access --------------------------------------------------------------------

    def access_line(self, ppn, line_index, is_write, source, time_seconds):
        """Perform one 64 B access; returns latency in CPU cycles."""
        source = getattr(source, "value", source)
        hit, closed, conflict = self.row_cycles
        _channel, bank, row = self.map_line(ppn, line_index)
        open_row = self._open_rows[bank]
        if open_row == row:
            self.stats.row_hits += 1
            cycles = hit
        else:
            self.stats.row_misses += 1
            cycles = closed if open_row == -1 else conflict
            self._open_rows[bank] = row
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        self.stats.bytes_by_source[source] += CACHE_LINE_BYTES
        self.bandwidth.record(time_seconds, CACHE_LINE_BYTES, source)
        return cycles

    def reset_rows(self):
        """Close all rows (e.g. between measurement phases)."""
        self._open_rows = [-1] * len(self._open_rows)
