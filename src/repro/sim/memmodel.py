"""The memory interference model: latency, contention, and pollution.

Extracted from ``ServerSystem`` so the two physical channels through
which merge machinery reaches application latency live in one component
with one clock:

* **L3 displacement** — merge-machinery bytes streamed through the
  shared L3 displace application working set.  The displaced volume
  decays with a refill time constant (``pollution_tau_s``) and raises
  the app-visible local miss rate above its Table 4 baseline.
* **Bandwidth contention** — recent DRAM traffic (app + KSM + PageForge)
  inflates per-access DRAM latency via a convex utilisation factor
  (``1 + beta * u^1.5``).

:class:`MemoryModel` also owns the memory-side clock (``now_s``): cache
misses advance it by their measured latency, and query/chunk starts pull
it forward to event time.  ``core_miss_latency`` is the L3-miss path the
per-core cache hierarchies call into (network + MC queue + DRAM,
inflated by contention).
"""

import math


class MemoryModel:
    """Latency/contention/pollution state for one simulated machine."""

    def __init__(self, machine, scale, app, dram, frequency_hz):
        self.machine = machine
        self.scale = scale
        self.app = app
        self.dram = dram
        self.freq = frequency_hz
        #: Memory-side clock (seconds); advanced by miss latencies and
        #: pulled forward to event time at query/chunk boundaries.
        self.now_s = 0.0
        # Pollution state: decaying volume of merge-machinery bytes that
        # displaced L3 contents.
        self._pollution_bytes = 0.0
        self._pollution_last_s = 0.0
        # Miss-rate observation for Table 4.
        self._miss_sum = 0.0
        self._miss_count = 0

    # Clock --------------------------------------------------------------------

    def touch(self, now):
        """Pull the memory clock forward to event time ``now``."""
        self.now_s = max(self.now_s, now)

    def advance(self, cycles):
        """Advance the memory clock by a measured latency."""
        self.now_s += cycles / self.freq

    # Pollution (L3 displacement) ----------------------------------------------

    def add_pollution(self, n_bytes, now):
        """Merge-machinery bytes that displaced L3 contents."""
        self._decay_pollution(now)
        self._pollution_bytes += n_bytes

    def _decay_pollution(self, now):
        dt = now - self._pollution_last_s
        if dt > 0:
            self._pollution_bytes *= math.exp(
                -dt / self.scale.pollution_tau_s
            )
            self._pollution_last_s = now

    def app_l3_miss_rate(self, now):
        """Current app-visible L3 local miss rate (baseline + pollution)."""
        self._decay_pollution(now)
        l3_bytes = self.machine.processor.l3.size_bytes
        displaced = min(1.0, self._pollution_bytes / l3_bytes)
        m0 = self.app.l3_miss_rate_baseline
        return m0 + (1.0 - m0) * displaced * self.scale.pollution_sensitivity

    def observe_query_miss_rate(self, m):
        """Record one query's miss rate for the run-average (Table 4)."""
        self._miss_sum += m
        self._miss_count += 1

    def measured_miss_rate(self):
        """Average app-visible L3 local miss rate over the run."""
        if self._miss_count == 0:
            return self.app.l3_miss_rate_baseline
        return self._miss_sum / self._miss_count

    # Contention (DRAM bandwidth pressure) --------------------------------------

    def contention_factor(self):
        """Latency inflation from recent DRAM bandwidth pressure."""
        window = self.dram.bandwidth
        recent = window.recent_bytes(self.now_s)
        peak = (
            self.machine.dram.peak_bandwidth_bytes_per_sec
            * window.window_seconds
        )
        utilization = min(1.0, recent / peak) if peak else 0.0
        return 1.0 + self.scale.contention_beta * utilization ** 1.5

    def core_miss_latency(self, addr, is_write, source):
        """L3-miss path for core-issued requests: network + MC queue +
        DRAM, inflated by bandwidth contention."""
        ppn, line = divmod(addr, 64)
        base = self.dram.access_line(
            ppn, line, is_write, source, self.now_s
        )
        base += self.scale.core_memory_overhead_cycles
        return int(base * self.contention_factor())

    # Metrics --------------------------------------------------------------------

    def metrics(self):
        """Provider payload for the :class:`~repro.sim.metrics.MetricsRegistry`."""
        return {
            "mem_now_s": self.now_s,
            "pollution_bytes": self._pollution_bytes,
            "measured_l3_miss_rate": self.measured_miss_rate(),
            "queries_observed": self._miss_count,
            "contention_factor": self.contention_factor(),
        }
