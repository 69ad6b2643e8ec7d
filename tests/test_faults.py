"""Fault-injection subsystem: guards, injector, governor, retry paths.

Fast deterministic tests for each layer of ``repro.faults`` plus the
hooks it plugs into: the engine's Scan-Table walk guards, the memory
controller's read-path hook and pending-buffer accounting, the driver's
retry/poison logic, and the degradation governor's state machine.  The
end-to-end campaign claims live in ``claims/test_fault_resilience.py``.
"""

import numpy as np
import pytest

from repro.common.config import TAILBENCH_APPS, KSMConfig, ResilienceConfig
from repro.common.units import PAGE_BYTES
from repro.core.driver import PageForgeMergeDriver
from repro.core.engine import PageForgeEngine
from repro.core.scan_table import (
    INVALID_INDEX,
    ScanTableCorruption,
    miss_sentinel,
    pointer_sane,
)
from repro.ecc.hamming import encode_line
from repro.faults import (
    DegradationGovernor,
    FaultInjector,
    FaultPlan,
    run_fault_campaign,
)
from repro.mem import MemoryController
from repro.mem.controller import RequestDropped, UncorrectableLineError
from repro.mem.requests import AccessSource
from repro.sim.system import ServerSystem, SimulationScale


def _engine_with_pages(memory, rng, n_pages):
    """An engine plus ``n_pages`` distinct filled frames."""
    engine = PageForgeEngine(MemoryController(0, memory, verify_ecc=False))
    frames = []
    for _ in range(n_pages):
        frame = memory.allocate()
        frame.fill(rng.bytes_array(PAGE_BYTES))
        frames.append(frame)
    return engine, frames


def _arm_pfe(engine, candidate_ppn, ptr=0):
    pfe = engine.table.pfe
    pfe.clear()
    pfe.valid = True
    pfe.ppn = candidate_ppn
    pfe.ptr = ptr
    return pfe


class TestScanTableWalkGuards:
    def test_less_more_cycle_raises_instead_of_hanging(self, memory, rng):
        """Hand-built cyclic table: entry 0 <-> entry 1 regardless of
        comparison outcome.  The pre-guard engine would spin forever."""
        engine, frames = _engine_with_pages(memory, rng, 3)
        cand, a, b = frames
        table = engine.table
        table.entries[0].valid = True
        table.entries[0].ppn = a.ppn
        table.entries[0].less = table.entries[0].more = 1
        table.entries[1].valid = True
        table.entries[1].ppn = b.ppn
        table.entries[1].less = table.entries[1].more = 0
        _arm_pfe(engine, cand.ppn)
        with pytest.raises(ScanTableCorruption, match="cycle"):
            engine.process_table()
        assert not engine.busy  # re-triggerable after the abort

    def test_self_loop_raises(self, memory, rng):
        engine, frames = _engine_with_pages(memory, rng, 2)
        cand, other = frames
        engine.table.entries[0].valid = True
        engine.table.entries[0].ppn = other.ppn
        engine.table.entries[0].less = engine.table.entries[0].more = 0
        _arm_pfe(engine, cand.ppn)
        with pytest.raises(ScanTableCorruption, match="cycle"):
            engine.process_table()

    def test_garbage_pointer_raises(self, memory, rng):
        engine, frames = _engine_with_pages(memory, rng, 2)
        cand, other = frames
        engine.table.entries[0].valid = True
        engine.table.entries[0].ppn = other.ppn
        engine.table.entries[0].less = engine.table.entries[0].more = 999
        _arm_pfe(engine, cand.ppn)
        with pytest.raises(ScanTableCorruption, match="undecodable"):
            engine.process_table()

    def test_v_bit_drop_under_walk_raises(self, memory, rng):
        engine, frames = _engine_with_pages(memory, rng, 2)
        cand, other = frames
        engine.table.entries[0].valid = True
        engine.table.entries[0].ppn = other.ppn

        def drop_v(table, ptr):
            table.entries[ptr].valid = False

        engine.walk_fault_hook = drop_v
        _arm_pfe(engine, cand.ppn)
        with pytest.raises(ScanTableCorruption, match="invalidated"):
            engine.process_table()

    def test_miss_sentinel_exit_is_not_corruption(self, memory, rng):
        engine, frames = _engine_with_pages(memory, rng, 2)
        cand, other = frames
        entry = engine.table.entries[0]
        entry.valid = True
        entry.ppn = other.ppn
        entry.less = miss_sentinel(0, "left")
        entry.more = miss_sentinel(0, "right")
        pfe = _arm_pfe(engine, cand.ppn)
        engine.process_table()
        assert pfe.scanned and not pfe.duplicate

    def test_recovers_after_corruption(self, memory, rng):
        """A corrupted batch aborts; a repaired refill then succeeds."""
        engine, frames = _engine_with_pages(memory, rng, 2)
        cand, other = frames
        entry = engine.table.entries[0]
        entry.valid = True
        entry.ppn = other.ppn
        entry.less = entry.more = 999
        _arm_pfe(engine, cand.ppn)
        with pytest.raises(ScanTableCorruption):
            engine.process_table()
        entry.less = entry.more = INVALID_INDEX
        pfe = _arm_pfe(engine, cand.ppn)
        engine.process_table()
        assert pfe.scanned

    def test_pointer_sane_classification(self):
        n = 31
        assert pointer_sane(INVALID_INDEX, n)
        assert pointer_sane(0, n)
        assert pointer_sane(n - 1, n)
        assert pointer_sane(miss_sentinel(5, "left"), n)
        assert pointer_sane(miss_sentinel(n - 1, "right"), n)
        assert not pointer_sane(n, n)
        assert not pointer_sane(-5, n)
        assert not pointer_sane(miss_sentinel(n, "left"), n)
        assert not pointer_sane(999, n)


class TestControllerFaultPath:
    def test_expire_pending_counts_retired_reads(self, memory, rng):
        mc = MemoryController(0, memory, verify_ecc=False)
        frame = memory.allocate()
        frame.fill(rng.bytes_array(PAGE_BYTES))
        mc.read_line(frame.ppn, 0, AccessSource.PAGEFORGE, 0.0)
        mc.read_line(frame.ppn, 1, AccessSource.PAGEFORGE, 0.0)
        assert mc.pending_reads == 2
        assert mc.expire_pending(0.0) == 0  # completions are in the future
        assert mc.stats.expired_reads == 0
        assert mc.expire_pending(1.0) == 2
        assert mc.stats.expired_reads == 2
        assert mc.pending_reads == 0

    def test_flush_pending_force_retires(self, memory, rng):
        mc = MemoryController(0, memory, verify_ecc=False)
        frame = memory.allocate()
        frame.fill(rng.bytes_array(PAGE_BYTES))
        mc.read_line(frame.ppn, 0, AccessSource.PAGEFORGE, 0.0)
        assert mc.flush_pending() == 1
        assert mc.stats.expired_reads == 1

    def test_single_bit_fault_corrected_and_frame_intact(self, memory, rng):
        mc = MemoryController(0, memory, verify_ecc=True)
        frame = memory.allocate()
        original = rng.bytes_array(PAGE_BYTES)
        frame.fill(original)
        injector = FaultInjector(FaultPlan(seed=3, single_bit_rate=0.99))
        injector.attach(controller=mc)
        _req, data, _code = mc.read_line(
            frame.ppn, 0, AccessSource.PAGEFORGE, 0.0
        )
        assert injector.stats.single_bit_flips == 1
        # SECDED corrected the flip: the caller sees the true bytes.
        assert np.array_equal(data, original[:64])
        assert mc.ecc.stats.words_corrected == 1
        # And the fault never touched the stored frame.
        assert np.array_equal(frame.data, original)

    def test_clean_reads_decode_without_reencoding(self, memory, rng,
                                                   monkeypatch):
        """Once a line's bytes have been encoded, a clean read of them
        (no hook, or a hook that only delays) decodes to a copy without
        another SECDED encode."""
        mc = MemoryController(0, memory, verify_ecc=True)
        frame = memory.allocate()
        frame.fill(rng.bytes_array(PAGE_BYTES))
        first, _data, _code = mc.read_line(
            frame.ppn, 3, AccessSource.PAGEFORGE, 0.0
        )

        def no_encode(_words):
            raise AssertionError("clean line was re-encoded")

        monkeypatch.setattr("repro.ecc.engine.encode_words", no_encode)
        _req, data, code = mc.read_line(
            frame.ppn, 3, AccessSource.PAGEFORGE, 1.0
        )
        assert np.array_equal(data, frame.data[3 * 64:4 * 64])
        assert not np.shares_memory(data, frame.data)
        np.testing.assert_array_equal(code, encode_line(data))
        injector = FaultInjector(FaultPlan(seed=3, latency_spike_rate=0.99))
        injector.attach(controller=mc)
        spiked, data, _code = mc.read_line(
            frame.ppn, 3, AccessSource.PAGEFORGE, 2.0
        )
        assert injector.stats.latency_spikes == 1
        assert spiked.latency > first.latency
        assert np.array_equal(data, frame.data[3 * 64:4 * 64])
        assert mc.ecc.stats.lines_decoded == 3
        assert mc.ecc.stats.words_corrected == 0

    def test_silent_corruption_passes_decode(self, memory, rng):
        mc = MemoryController(0, memory, verify_ecc=True)
        frame = memory.allocate()
        original = rng.bytes_array(PAGE_BYTES)
        frame.fill(original)
        injector = FaultInjector(FaultPlan(seed=3, silent_rate=0.99))
        injector.attach(controller=mc)
        _req, data, code = mc.read_line(
            frame.ppn, 2, AccessSource.PAGEFORGE, 0.0
        )
        assert injector.stats.silent_corruptions == 1
        # SECDED sees a self-consistent codeword: the damage gets through.
        assert not np.array_equal(data, original[2 * 64:3 * 64])
        np.testing.assert_array_equal(code, encode_line(data))
        assert mc.ecc.stats.words_corrected == 0
        assert mc.ecc.stats.uncorrectable_errors == 0
        assert np.array_equal(frame.data, original)

    def test_double_bit_fault_raises_uncorrectable(self, memory, rng):
        mc = MemoryController(0, memory, verify_ecc=True)
        frame = memory.allocate()
        frame.fill(rng.bytes_array(PAGE_BYTES))
        injector = FaultInjector(FaultPlan(seed=3, double_bit_rate=0.99))
        injector.attach(controller=mc)
        with pytest.raises(UncorrectableLineError) as excinfo:
            mc.read_line(frame.ppn, 5, AccessSource.PAGEFORGE, 0.0)
        assert excinfo.value.ppn == frame.ppn
        assert excinfo.value.line_index == 5
        assert np.array_equal(frame.read_line(5), frame.data[5 * 64:6 * 64])

    def test_dropped_request_raises(self, memory, rng):
        mc = MemoryController(0, memory, verify_ecc=True)
        frame = memory.allocate()
        frame.fill(rng.bytes_array(PAGE_BYTES))
        injector = FaultInjector(FaultPlan(seed=3, drop_rate=0.99))
        injector.attach(controller=mc)
        with pytest.raises(RequestDropped):
            mc.read_line(frame.ppn, 0, AccessSource.PAGEFORGE, 0.0)
        assert injector.stats.requests_dropped == 1


class TestFaultInjector:
    def test_silent_corruption_passes_secded(self, rng):
        injector = FaultInjector(FaultPlan(seed=7, silent_rate=0.99))
        line = rng.bytes_array(64)
        original = line.copy()
        code = encode_line(line)
        data, new_code, extra = injector.line_hook(0, 0, line, code)
        assert injector.stats.silent_corruptions == 1
        assert extra == 0
        assert not np.array_equal(data, original)  # damaged ...
        assert np.array_equal(encode_line(data), new_code)  # ... invisibly
        assert np.array_equal(line, original)  # hook works on a copy

    def test_latency_spike_delays_without_corrupting(self, rng):
        plan = FaultPlan(seed=7, latency_spike_rate=0.99,
                         latency_spike_cycles=1234)
        injector = FaultInjector(plan)
        line = rng.bytes_array(64)
        code = encode_line(line)
        data, new_code, extra = injector.line_hook(0, 0, line, code)
        assert extra == 1234
        assert np.array_equal(data, line)
        assert np.array_equal(new_code, code)

    def test_same_seed_replays_identically(self, rng):
        plan = FaultPlan.uniform(0.3, seed=11)
        lines = [rng.bytes_array(64) for _ in range(40)]
        codes = [encode_line(line) for line in lines]

        def run():
            injector = FaultInjector(plan)
            out = []
            for i, (line, code) in enumerate(zip(lines, codes)):
                try:
                    data, c, extra = injector.line_hook(0, i, line, code)
                    out.append((data.tobytes(), bytes(np.asarray(c)), extra))
                except RequestDropped:
                    out.append("dropped")
            return out, injector.stats.snapshot()

        first, second = run(), run()
        assert first == second

    def test_different_seeds_diverge(self, rng):
        lines = [rng.bytes_array(64) for _ in range(60)]
        codes = [encode_line(line) for line in lines]

        def trace(seed):
            injector = FaultInjector(FaultPlan.uniform(0.3, seed=seed))
            for i, (line, code) in enumerate(zip(lines, codes)):
                try:
                    injector.line_hook(0, i, line, code)
                except RequestDropped:
                    pass
            return injector.stats.snapshot()

        assert trace(1) != trace(2)


class TestDegradationGovernor:
    def _config(self, **overrides):
        base = dict(fallback_fault_rate=2e-4, recovery_fault_rate=5e-5,
                    ewma_alpha=0.9, probe_interval=4, recovery_probes=2)
        base.update(overrides)
        return ResilienceConfig(**base)

    def test_falls_back_when_rate_crosses_threshold(self):
        gov = DegradationGovernor(self._config())
        assert gov.observe(events=0, lines=10_000) == "hardware"
        assert gov.observe(events=50, lines=20_000) == "software"
        assert gov.transitions == [(2, "software")]

    def test_probe_cadence_while_degraded(self):
        gov = DegradationGovernor(self._config())
        gov.observe(events=100, lines=10_000)  # fall back at interval 1
        assert gov.backend == "software"
        decisions = []
        for _ in range(8):
            decisions.append(gov.plan_interval())
            gov.observe(events=100, lines=10_000)  # software: no deltas
        # _interval_index was 1 after the fallback; every 4th is a probe.
        assert decisions == ["software", "software", "software", "hardware",
                             "software", "software", "software", "hardware"]

    def test_recovers_after_consecutive_healthy_probes(self):
        gov = DegradationGovernor(self._config())
        gov.observe(events=100, lines=10_000)  # ewma ~ 9e-3 -> software
        lines = 10_000
        # Healthy probes: hardware lines flow, zero new events; alpha=0.9
        # collapses the EWMA fast.
        probes = 0
        while gov.backend == "software" and probes < 20:
            lines += 10_000
            gov.observe(events=100, lines=lines)
            probes += 1
        assert gov.backend == "hardware"
        assert gov.transitions[-1][1] == "hardware"
        assert gov.intervals_degraded == probes

    def test_software_intervals_leave_ewma_untouched(self):
        gov = DegradationGovernor(self._config())
        gov.observe(events=100, lines=10_000)
        ewma = gov.ewma
        gov.observe(events=100, lines=10_000)  # delta_lines == 0
        assert gov.ewma == ewma

    def test_hysteresis_gap_enforced(self):
        with pytest.raises(ValueError):
            ResilienceConfig(fallback_fault_rate=1e-4,
                             recovery_fault_rate=1e-4)


def _shared_world(hypervisor, rng, n_vms=3, shared=4, unique=2):
    contents = [rng.bytes_array(PAGE_BYTES) for _ in range(shared)]
    for i in range(n_vms):
        vm = hypervisor.create_vm(f"vm{i}")
        gpn = 0
        for content in contents:
            hypervisor.populate_page(vm, gpn, content, mergeable=True)
            gpn += 1
        for _ in range(unique):
            hypervisor.populate_page(vm, gpn, rng.bytes_array(PAGE_BYTES),
                                     mergeable=True)
            gpn += 1


class TestDriverRetryAndPoison:
    def test_drops_are_retried_and_merging_completes(self, hypervisor, rng):
        _shared_world(hypervisor, rng)
        controller = MemoryController(0, hypervisor.memory, verify_ecc=True)
        driver = PageForgeMergeDriver(
            hypervisor, controller, ksm_config=KSMConfig(pages_to_scan=500),
            line_sampling=1,
        )
        injector = FaultInjector(FaultPlan(seed=5, drop_rate=0.02))
        injector.attach(controller=controller, engine=driver.engine)
        before = hypervisor.footprint_pages()
        driver.run_to_steady_state(max_passes=4)
        injector.detach()
        assert injector.stats.requests_dropped > 0
        assert driver.fault_stats.batch_retries > 0
        # Bounded retries: abandoning is allowed, looping forever is not.
        assert driver.fault_stats.batches_abandoned <= \
            driver.fault_stats.batch_retries
        assert hypervisor.footprint_pages() < before  # merging still won
        hypervisor.verify_consistency()

    def test_uncorrectable_candidate_is_poisoned(self, hypervisor, rng):
        _shared_world(hypervisor, rng)
        controller = MemoryController(0, hypervisor.memory, verify_ecc=True)
        driver = PageForgeMergeDriver(
            hypervisor, controller, ksm_config=KSMConfig(pages_to_scan=500),
            line_sampling=1,
        )
        injector = FaultInjector(FaultPlan(seed=5, double_bit_rate=0.10))
        injector.attach(controller=controller, engine=driver.engine)
        driver.scan_pages(hypervisor.guest_pages() * 2)
        injector.detach()
        assert driver.fault_stats.uncorrectable_lines > 0
        assert driver.fault_stats.candidates_poisoned > 0
        assert driver.stats.candidates_poisoned > 0
        # Poisoned pages are retired from merging, never corrupted.
        poisoned = [
            m for vm in hypervisor.vms.values() for m in vm.mappings()
            if not m.mergeable and not m.cow
        ]
        assert len(poisoned) >= driver.fault_stats.candidates_poisoned
        hypervisor.verify_consistency()

    def test_backend_switch_round_trip(self, hypervisor, rng):
        _shared_world(hypervisor, rng)
        controller = MemoryController(0, hypervisor.memory, verify_ecc=False)
        driver = PageForgeMergeDriver(
            hypervisor, controller, ksm_config=KSMConfig(pages_to_scan=500),
        )
        driver.set_backend("software")
        assert driver.backend == "software"
        assert driver.daemon.search_strategy is None
        before = hypervisor.footprint_pages()
        driver.scan_pages(hypervisor.guest_pages() * 2)
        assert hypervisor.footprint_pages() < before  # software still merges
        lines_before = driver.engine.stats.lines_fetched
        driver.set_backend("hardware")
        assert driver.daemon.search_strategy is driver.strategy
        driver.scan_pages(hypervisor.guest_pages())
        assert driver.engine.stats.lines_fetched >= lines_before
        hypervisor.verify_consistency()


    def test_failed_hint_keying_is_rejected_and_poisons(self):
        # Serverless hosts offer hints at construction; under PageForge
        # each hint is keyed through the engine, outside the scan loop.
        system = ServerSystem(
            TAILBENCH_APPS["moses"], mode="pageforge", scenario="serverless",
            fault_plan=FaultPlan.uniform(0.05, seed=2),
            scale=SimulationScale(pages_per_vm=100, n_vms=3), seed=7,
        )
        daemon = system.pf_driver.daemon
        assert daemon.stats.candidates_poisoned > 0
        unmergeable = {
            (vm.vm_id, m.gpn): m.ppn
            for vm in system.hypervisor.vms.values()
            for m in vm.mappings() if not m.mergeable
        }
        assert unmergeable[(2, 48)] == 248  # the page whose line failed
        assert len(unmergeable) == daemon.stats.candidates_poisoned
        # Rejected hints are neither keyed nor queued.
        assert not unmergeable.keys() & daemon._checksums.keys()
        assert daemon.hints_accepted == len(daemon._pass_queue)
        system.hypervisor.verify_consistency()


class TestTimedSoftwareFallback:
    def test_software_interval_is_charged_and_scheduled(self, monkeypatch):
        # A fault rate far over the governor's threshold degrades the
        # timed PageForge backend after its first interval; each later
        # software interval occupies a core like ksmd does.
        system = ServerSystem(
            TAILBENCH_APPS["moses"], mode="pageforge",
            fault_plan=FaultPlan.uniform(1e-2, seed=3),
            scale=SimulationScale(pages_per_vm=60, n_vms=2,
                                  duration_s=0.05, warmup_s=0.05),
            seed=3,
        )
        backend = system.backend
        fallbacks = []
        real_cycles = backend._degraded_chunk_cycles

        def recording_cycles(interval, now):
            before = system.ksm_timing.total_cycles
            cycles = real_cycles(interval, now)
            fallbacks.append((system.pf_driver.backend, cycles,
                              system.ksm_timing.total_cycles - before))
            return cycles

        chunks = []
        real_schedule = system.schedule_kernel_chunk

        def recording_schedule(duration_fn, *args, **kwargs):
            chunks.append(duration_fn())
            return real_schedule(duration_fn, *args, **kwargs)

        monkeypatch.setattr(backend, "_degraded_chunk_cycles",
                            recording_cycles)
        monkeypatch.setattr(system, "schedule_kernel_chunk",
                            recording_schedule)
        system.run()

        assert fallbacks
        # Only software intervals charge the KSM cycle ledger here.
        assert system.ksm_timing.intervals == len(fallbacks)
        for mode, cycles, charged in fallbacks:
            assert mode == "software"
            assert cycles > 0
            assert cycles == pytest.approx(charged, abs=1.0)
            assert cycles / system.freq in chunks
        system.hypervisor.verify_consistency()


@pytest.mark.slow
class TestCampaignDeterminism:
    def test_tiny_campaign_clean_and_reproducible(self):
        plan = FaultPlan.uniform(2e-3, seed=9, churn=True)
        kwargs = dict(mode="pageforge", plan=plan, seed=9,
                      pages_per_vm=12, n_vms=3, intervals=2)
        first = run_fault_campaign(**kwargs)
        second = run_fault_campaign(**kwargs)
        assert first.clean
        assert first.fingerprint == second.fingerprint
        assert first.injected == second.injected

    def test_esx_campaign_runs_without_walk_counters(self):
        kwargs = dict(mode="esx", plan=FaultPlan.uniform(2e-3, seed=1,
                                                         churn=True),
                      seed=1, pages_per_vm=40, n_vms=3, intervals=5)
        first = run_fault_campaign(**kwargs)
        assert first.clean
        assert first.merges > 0
        # ESX-style buckets walk no tree, so nothing counts walk failures.
        assert first.walk_failures == first.candidates_poisoned == 0
        assert first.fingerprint == run_fault_campaign(**kwargs).fingerprint

    def test_quiet_plan_injects_nothing(self):
        result = run_fault_campaign(
            mode="pageforge", plan=FaultPlan.quiet(seed=1), seed=1,
            pages_per_vm=12, n_vms=2, intervals=2,
        )
        assert result.clean
        injected = {
            k: v for k, v in result.injected.items()
            if k not in ("lines_inspected", "walk_steps_inspected")
        }
        assert all(v == 0 for v in injected.values())
        assert result.savings_frac > 0
