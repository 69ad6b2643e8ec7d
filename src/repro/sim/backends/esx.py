"""The ESX-style backend: hash-bucket merging as a kernel thread.

Wires :class:`~repro.ksm.esx.ESXStyleMerger` (Section 7.2's VMware-like
design: full-page hash keys, bucket lookups, byte-compare only on key
collisions) into the timed system on the same chunk path KSM uses.

ESX's cost shape differs from KSM's: there is no tree to maintain (far
less bookkeeping per page) but every scanned page is hashed in full —
4 KB through jhash2 instead of KSM's 1 KB change-detection window.  The
chunk cost is the shared software-scan model
(:mod:`~repro.sim.backends.cachecost`) with ESX's bookkeeping rate,
and memory stalls estimated in bulk like the PageForge
software-fallback interval — the ESX merger has no cache-cost sink
wired.
"""

from repro.ksm.esx import ESXStyleMerger
from repro.sim.backends.base import MergeBackend, MergerBundle
from repro.sim.backends.cachecost import (
    floored_scan_stalls,
    software_scan_cycles,
)
from repro.sim.backends.registry import register_backend

PAGE_BYTES = 4096

#: Per-page bookkeeping cycles: bucket lookup + list insert + rmap
#: check, with no content-tree maintenance (KSM's dominant "other"
#: cost) — the structural advantage of hash buckets over trees.
BOOKKEEPING_CYCLES_PER_PAGE = 6_000.0


@register_backend("esx")
class ESXBackend(MergeBackend):
    """ESX-style hash-bucket merging, run as a budgeted kernel chunk."""

    # The merger keeps no serialisable tree state and the recovery
    # validator audits KSM trees, so crash-safe runs exclude it.
    supports_recovery = False

    @classmethod
    def build_bundle(cls, hypervisor, machine, *, controller=None,
                     cost_sink=None, line_sampling=8, verify_ecc=False):
        return MergerBundle(merger=ESXStyleMerger(hypervisor))

    # Timed face -----------------------------------------------------------------

    def __init__(self, system):
        super().__init__(system)
        self.merger = self.bundle.merger

    def _wake(self):
        self.system.schedule_kernel_chunk(
            self._run_chunk, on_done=self._sleep_then_wake
        )

    def _run_chunk(self):
        """Execute one bucket-scan interval; returns core occupancy (s)."""
        system = self.system
        now = system.events.now
        interval = system.host.scan(system.machine.ksm.pages_to_scan)
        # Every scanned page is hashed in full (the ESX key must
        # discriminate, not just detect writes); compares happen only on
        # bucket collisions.
        hash_bytes = interval.pages_scanned * PAGE_BYTES
        compare_cpu, hash_cpu, other_cpu = software_scan_cycles(
            interval.bytes_compared, hash_bytes, interval.pages_scanned,
            cycles_per_page=BOOKKEEPING_CYCLES_PER_PAGE,
        )
        stalls = floored_scan_stalls(
            system, 2 * interval.bytes_compared + hash_bytes, now
        )
        cpu = compare_cpu + hash_cpu
        system.ksm_timing.charge(
            compare_cpu + stalls * (compare_cpu / cpu if cpu > 0 else 0.0),
            hash_cpu + stalls * (hash_cpu / cpu if cpu > 0 else 0.0),
            other_cpu,
        )
        total = compare_cpu + hash_cpu + other_cpu + stalls
        return total / system.freq

    def register_metrics(self, registry):
        super().register_metrics(registry)
        registry.register("esx", lambda: self.merger.stats)
        registry.register(
            "esx_buckets", lambda: {"n_buckets": self.merger.n_buckets}
        )

    def summarize(self, summary):
        compare, hsh, _other = self.system.ksm_timing.shares()
        summary.ksm_compare_share = compare
        summary.ksm_hash_share = hsh

    # Functional state ------------------------------------------------------------

    @classmethod
    def capture_functional(cls, bundle):
        from repro.recovery.serialize import capture_esx

        return capture_esx(bundle.merger)

    @classmethod
    def restore_functional(cls, bundle, state):
        from repro.recovery.serialize import restore_esx

        restore_esx(bundle.merger, state)
        return bundle
