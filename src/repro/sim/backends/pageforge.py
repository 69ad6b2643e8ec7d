"""The PageForge backend: hardware merging in the memory controller.

The timed face reproduces the original ``ServerSystem`` PageForge path
exactly: the driver scans at the home controller, the engine's cycles
drain off the CPU's critical path, and the only core occupancy is the
OS polling get_PFE_info and refilling the Scan Table (Table 5).  With a
fault plan armed, a degradation governor may fall an interval back to
software primitives — that interval occupies a core like ksmd does,
with stalls estimated in bulk.
"""

from repro.core.driver import PageForgeMergeDriver
from repro.mem import MemoryController
from repro.sim.backends.base import MergeBackend, MergerBundle
from repro.sim.backends.cachecost import (
    floored_scan_stalls,
    software_scan_cycles,
)
from repro.sim.backends.registry import register_backend


@register_backend("pageforge")
class PageForgeBackend(MergeBackend):
    """PageForge: near-memory hardware merging, OS-driven."""

    supports_recovery = True

    @classmethod
    def build_bundle(cls, hypervisor, machine, *, controller=None,
                     cost_sink=None, line_sampling=8, verify_ecc=False):
        if controller is None:
            controller = MemoryController(0, hypervisor.memory)
        # Faults only matter if the SECDED decode actually runs.
        controller.verify_ecc = verify_ecc
        driver = PageForgeMergeDriver(
            hypervisor, controller, bus=hypervisor.bus,
            ksm_config=machine.ksm, pf_config=machine.pageforge,
            line_sampling=line_sampling,
        )
        # The driver scans; its daemon holds the trees and the hint
        # queue (hinted pages are keyed by the engine's ECC hash).
        return MergerBundle(merger=driver, daemon=driver.daemon, driver=driver)

    # Timed face -----------------------------------------------------------------

    def __init__(self, system):
        super().__init__(system)
        self.driver = self.bundle.driver

    def _wake(self):
        system = self.system
        now = system.events.now
        system.memmodel.touch(now)
        system.host.churner.tick()
        sleep_s = system.machine.ksm.sleep_millisecs / 1000.0
        governor = system.host.governor
        if governor is not None:
            self.driver.set_backend(governor.plan_interval())
        if self.driver.backend == "software":
            # Degraded interval: same daemon, software primitives.  The
            # engine is idle, so the work occupies a core like ksmd does.
            interval = self.driver.scan_pages(
                system.machine.ksm.pages_to_scan, now=now
            )
            governor.observe(*self.driver.fault_observations())
            cpu_cycles = self._degraded_chunk_cycles(interval, now)
            system.schedule_kernel_chunk(lambda: cpu_cycles / system.freq)
            system.events.schedule_in(
                cpu_cycles / system.freq + sleep_s, self._wake
            )
            return
        refills_before = self.driver.strategy.table_refills
        self.driver.scan_pages(
            system.machine.ksm.pages_to_scan, now=now
        )
        if governor is not None:
            governor.observe(*self.driver.fault_observations())
        hw_cycles = self.driver.drain_engine_cycles()
        refills = self.driver.strategy.table_refills - refills_before
        hw_s = hw_cycles / system.freq
        # The OS periodically polls get_PFE_info and refills the table —
        # the only CPU work PageForge requires (Table 5: every 12k cycles).
        n_checks = int(hw_cycles // system.scale.os_check_cycles) + 1
        os_cycles = (
            n_checks * system.scale.os_check_cost_cycles
            + refills * system.scale.os_refill_cost_cycles
        )
        system.schedule_kernel_chunk(lambda: os_cycles / system.freq)
        system.events.schedule_in(hw_s + sleep_s, self._wake)

    def _degraded_chunk_cycles(self, interval, now):
        """CPU cycles of one software-fallback interval.

        The KSM chunk's cost model, with memory stalls estimated in
        bulk instead of measured — the fallback daemon has no cache sink
        wired.
        """
        system = self.system
        compare_cpu, hash_cpu, other_cpu = software_scan_cycles(
            interval.bytes_compared + interval.merge_verify_bytes,
            interval.checksum_bytes, interval.pages_scanned,
        )
        stalls = floored_scan_stalls(
            system, 2 * interval.bytes_compared + interval.checksum_bytes,
            now,
        )
        system.ksm_timing.charge(compare_cpu, hash_cpu, other_cpu + stalls)
        return int(compare_cpu + hash_cpu + other_cpu + stalls)

    def register_metrics(self, registry):
        super().register_metrics(registry)
        registry.register("pf_engine", self._engine_metrics)
        registry.register(
            "pf_faults", lambda: self.driver.fault_stats
        )

    def _engine_metrics(self):
        stats = self.driver.hw_stats
        return {
            "page_comparisons": stats.page_comparisons,
            "line_pairs_compared": stats.line_pairs_compared,
            "tables_processed": stats.tables_processed,
            "mean_table_cycles": stats.mean_table_cycles,
            "std_table_cycles": stats.std_table_cycles,
        }

    def summarize(self, summary):
        summary.pf_mean_table_cycles = (
            self.driver.hw_stats.mean_table_cycles
        )
        summary.pf_std_table_cycles = (
            self.driver.hw_stats.std_table_cycles
        )

    # Functional state ------------------------------------------------------------

    @classmethod
    def capture_functional(cls, bundle):
        from repro.recovery.serialize import capture_driver

        return capture_driver(bundle.driver)

    @classmethod
    def restore_functional(cls, bundle, state):
        from repro.recovery.serialize import restore_driver

        restore_driver(bundle.driver, state)
        return bundle
