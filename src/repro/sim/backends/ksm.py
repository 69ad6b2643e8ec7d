"""The software-KSM backend: RedHat's daemon migrating across cores.

The timed face reproduces the original ``ServerSystem`` KSM path
exactly: every wake picks a core via the kernel task scheduler, the
scan interval's compared/hashed bytes stream through that core's cache
hierarchy (the :class:`~repro.sim.backends.cachecost.CacheCostSink`),
and the chunk's occupancy is the CPU cost formula plus the measured
stalls.  Subclasses (UKSM) override the daemon construction, the
per-interval page quota, and the post-interval cost observation.
"""

from repro.ksm import KSMDaemon
from repro.sim.backends.base import MergeBackend, MergerBundle
from repro.sim.backends.cachecost import software_scan_cycles
from repro.sim.backends.registry import register_backend


@register_backend("ksm")
class KSMSoftwareBackend(MergeBackend):
    """KSM as a kernel thread: scan chunks occupy real cores."""

    supports_recovery = True

    @classmethod
    def build_bundle(cls, hypervisor, machine, *, controller=None,
                     cost_sink=None, line_sampling=8, verify_ecc=False):
        daemon = KSMDaemon(hypervisor, machine.ksm, cost_sink=cost_sink)
        return MergerBundle(merger=daemon, daemon=daemon)

    # Timed face -----------------------------------------------------------------

    def __init__(self, system):
        super().__init__(system)
        self.daemon = self.bundle.daemon

    def _wake(self):
        # The chunk must occupy the chosen core *as ksmd*: the cost sink
        # streams lines through that core's hierarchy mid-chunk.
        self.system.schedule_kernel_chunk(
            self._run_chunk, on_done=self._sleep_then_wake,
            occupy_ksm_core=True,
        )

    def _chunk_quota(self):
        """Pages to scan this interval (UKSM substitutes its governor)."""
        return self.system.machine.ksm.pages_to_scan

    def _observe_chunk(self, interval, total_cycles):
        """Post-interval hook (UKSM updates its cost estimate here)."""

    def _run_chunk(self):
        """Execute one scan interval; returns its core occupancy (s)."""
        system = self.system
        now = system.events.now
        sink = system.cost_sink
        sink.reset()
        interval = system.host.scan(self._chunk_quota())
        # Memory stalls measured through the cache model are added to
        # the CPU cost per category.
        compare_cpu, hash_cpu, other_cpu = software_scan_cycles(
            interval.bytes_compared + interval.merge_verify_bytes,
            interval.checksum_bytes, interval.pages_scanned,
        )
        stalls = sink.stalls_by_category
        compare_total = compare_cpu + stalls.get("compare", 0.0)
        hash_total = hash_cpu + stalls.get("hash", 0.0)
        system.ksm_timing.charge(compare_total, hash_total, other_cpu)
        # The interval's stream displaced L3 contents.
        system.add_pollution(sink.lines_streamed * 64, now)
        total_cycles = compare_total + hash_total + other_cpu
        self._observe_chunk(interval, total_cycles)
        return total_cycles / system.freq

    def summarize(self, summary):
        compare, hsh, _other = self.system.ksm_timing.shares()
        summary.ksm_compare_share = compare
        summary.ksm_hash_share = hsh

    # Functional state ------------------------------------------------------------

    @classmethod
    def capture_functional(cls, bundle):
        from repro.recovery.serialize import capture_daemon

        return capture_daemon(bundle.daemon)

    @classmethod
    def restore_functional(cls, bundle, state):
        from repro.recovery.serialize import restore_daemon

        restore_daemon(bundle.daemon, state)
        return bundle
