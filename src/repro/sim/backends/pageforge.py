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
from repro.mem.controller import home_controller_for
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

    # Timed face -----------------------------------------------------------------

    def build(self):
        system = self.system
        home = home_controller_for(
            system.controllers, system.machine.pageforge
        )
        if system.fault_plan is not None:
            # Faults only matter if the SECDED decode actually runs.
            home.verify_ecc = True
        self.driver = PageForgeMergeDriver(
            system.hypervisor,
            home,
            bus=system.bus,
            ksm_config=system.machine.ksm,
            pf_config=system.machine.pageforge,
            line_sampling=8,
            resilience=system.resilience,
        )
        # The driver scans; its daemon holds the trees and the hint
        # queue (hinted pages are keyed by the engine's ECC hash).
        self.bundle = MergerBundle(
            merger=self.driver, daemon=self.driver.daemon, driver=self.driver
        )
        system.pf_driver = self.driver
        if system.fault_plan is not None:
            from repro.faults import arm_bundle

            system.fault_injector, system.pf_governor = arm_bundle(
                self.bundle, system.fault_plan
            )

    def _wake(self):
        system = self.system
        now = system.events.now
        system.memmodel.touch(now)
        system.churner.tick()
        sleep_s = system.machine.ksm.sleep_millisecs / 1000.0
        if system.pf_governor is not None:
            self.driver.set_backend(system.pf_governor.plan_interval())
        if self.driver.backend == "software":
            # Degraded interval: same daemon, software primitives.  The
            # engine is idle, so the work occupies a core like ksmd does.
            interval = self.driver.scan_pages(
                system.machine.ksm.pages_to_scan, now=now
            )
            system.pf_governor.observe(*self.driver.fault_observations())
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
        if system.pf_governor is not None:
            system.pf_governor.observe(*self.driver.fault_observations())
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
        timing = system.ksm_timing
        timing.compare_cycles += compare_cpu
        timing.hash_cycles += hash_cpu
        timing.other_cycles += other_cpu + stalls
        timing.intervals += 1
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

    # Functional face -------------------------------------------------------------

    @classmethod
    def build_functional(cls, hypervisor, ksm_config, *, line_sampling=8,
                         verify_ecc=False, resilience=None):
        controller = MemoryController(
            0, hypervisor.memory, verify_ecc=verify_ecc
        )
        driver = PageForgeMergeDriver(
            hypervisor, controller, ksm_config=ksm_config,
            line_sampling=line_sampling, resilience=resilience,
        )
        return MergerBundle(merger=driver, daemon=driver.daemon, driver=driver)

    @classmethod
    def capture_functional(cls, bundle):
        from repro.recovery.serialize import capture_driver

        return capture_driver(bundle.driver)

    @classmethod
    def restore_functional(cls, bundle, state):
        from repro.recovery.serialize import restore_driver

        restore_driver(bundle.driver, state)
        return bundle
