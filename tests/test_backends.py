"""Tests for the merge-backend registry and the uksm/esx backends.

The registry is the single dispatch point for every mode string; these
tests cover its contract (registration, lookup errors, recoverability
filtering) and then drive the two non-paper backends end-to-end through
the same ServerSystem / runner / export path the paper's three use.
"""

import pytest

from repro.common.config import KSMConfig, MachineConfig, TAILBENCH_APPS
from repro.faults import DegradationGovernor, FaultPlan
from repro.ksm import KSMDaemon
from repro.ksm.esx import ESXStyleMerger
from repro.ksm.uksm import UKSMDaemon
from repro.recovery.runner import RunSpec, run_to_completion
from repro.scenarios import ScenarioSpec, available_scenarios
from repro.sim import ServerSystem, SimulationScale
from repro.sim.backends import (
    MergeBackend,
    available_backends,
    get_backend,
    recoverable_backends,
    register_backend,
)
from repro.sim.host import FunctionalHost, frame_digest_counts
from repro.sim.runner import run_latency_experiment, run_memory_savings
from repro.verify.invariants import InvariantAuditor

TINY = SimulationScale(
    pages_per_vm=120, n_vms=3, duration_s=0.12, warmup_s=0.08,
)

APP = TAILBENCH_APPS["moses"]


@pytest.fixture(scope="module")
def new_mode_systems():
    result = {}
    for mode in ("baseline", "uksm", "esx"):
        system = ServerSystem(APP, mode=mode, scale=TINY, seed=11)
        system.run()
        result[mode] = system
    return result


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == (
            "baseline", "esx", "ksm", "pageforge", "uksm",
        )

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("vmware")
        message = str(excinfo.value)
        assert "vmware" in message
        for name in available_backends():
            assert name in message

    def test_recoverable_subset(self):
        recoverable = recoverable_backends()
        assert set(recoverable) == {"ksm", "pageforge", "uksm"}
        for name in recoverable:
            assert get_backend(name).supports_recovery

    def test_register_and_unregister_custom_backend(self):
        from repro.sim.backends import registry as reg

        @register_backend("custom-test")
        class CustomBackend(MergeBackend):
            pass

        try:
            assert CustomBackend.name == "custom-test"
            assert get_backend("custom-test") is CustomBackend
            assert "custom-test" in available_backends()
        finally:
            reg._REGISTRY.pop("custom-test", None)
        assert "custom-test" not in available_backends()

    def test_registration_gives_classes_their_name(self):
        for name in available_backends():
            assert get_backend(name).name == name


class TestUKSMBackend:
    def test_merges_pages(self, new_mode_systems):
        system = new_mode_systems["uksm"]
        assert system.hypervisor.stats.merges > 0
        assert system.hypervisor.footprint_pages() < \
            system.hypervisor.guest_pages()

    def test_daemon_is_uksm(self, new_mode_systems):
        system = new_mode_systems["uksm"]
        assert isinstance(system.ksm, UKSMDaemon)
        assert system.backend.daemon is system.ksm

    def test_budget_estimate_fed_from_measured_cost(self, new_mode_systems):
        daemon = new_mode_systems["uksm"].ksm
        # _observe_chunk fed the measured chunk cost into the EWMA: the
        # estimate left its initial 20,000 cycles/page.
        assert daemon.cycles_per_page_estimate != 20_000.0
        assert daemon.cycles_per_page_estimate > 0
        assert daemon.stats.pages_scanned > 0

    def test_metrics_snapshot_includes_uksm_provider(self, new_mode_systems):
        snapshot = new_mode_systems["uksm"].metrics.snapshot()
        assert snapshot["uksm/cpu_budget_frac"] == pytest.approx(0.20)
        assert snapshot["uksm/cycles_per_page_estimate"] > 0
        assert snapshot["ksm_daemon/merges"] > 0

    def test_deterministic_across_runs(self):
        fingerprints = []
        for _ in range(2):
            system = ServerSystem(APP, mode="uksm", scale=TINY, seed=23)
            collector = system.run()
            fingerprints.append((
                len(collector),
                system.hypervisor.stats.merges,
                system.ksm_timing.total_cycles,
                system.metrics.snapshot(),
            ))
        assert fingerprints[0] == fingerprints[1]


class TestESXBackend:
    def test_merges_pages(self, new_mode_systems):
        system = new_mode_systems["esx"]
        assert system.hypervisor.stats.merges > 0
        assert system.hypervisor.footprint_pages() < \
            system.hypervisor.guest_pages()

    def test_merger_exposed(self, new_mode_systems):
        system = new_mode_systems["esx"]
        assert isinstance(system.backend.merger, ESXStyleMerger)
        assert system.backend.merger.stats.hash_lookups > 0

    def test_metrics_snapshot_includes_buckets(self, new_mode_systems):
        snapshot = new_mode_systems["esx"].metrics.snapshot()
        assert snapshot["esx_buckets/n_buckets"] > 0
        assert snapshot["esx/merges"] > 0

    def test_ksm_timing_attributed(self, new_mode_systems):
        timing = new_mode_systems["esx"].ksm_timing
        assert timing.intervals > 0
        # Full-page hashing dominates ESX's profile.
        assert timing.hash_cycles > timing.compare_cycles


class TestWorkloadInvariance:
    def test_new_modes_see_identical_workload(self, new_mode_systems):
        """Content/arrival RNG streams stay mode-independent."""
        guest_pages = {
            mode: system.hypervisor.guest_pages()
            for mode, system in new_mode_systems.items()
        }
        assert len(set(guest_pages.values())) == 1


class TestRunnerIntegration:
    def test_latency_experiment_uksm_and_esx(self):
        scale = SimulationScale(
            pages_per_vm=100, n_vms=2, duration_s=0.08, warmup_s=0.08,
        )
        result = run_latency_experiment(
            APP, modes=("baseline", "uksm", "esx"), scale=scale, seed=7,
        )
        assert set(result.summaries) == {"baseline", "uksm", "esx"}
        for mode in ("uksm", "esx"):
            assert result.normalized_mean(mode) > 0
            assert result.metrics[mode]["hypervisor/merges"] > 0
        # The esx summary carries KSM-style share columns.
        assert result.summaries["esx"].ksm_hash_share > 0

    def test_memory_savings_dispatches_esx(self):
        result = run_memory_savings(
            "moses", pages_per_vm=80, n_vms=2, engine="esx", max_passes=4,
        )
        assert result.engine == "esx"
        assert result.pages_after < result.pages_before

    def test_memory_savings_rejects_baseline_and_unknown(self):
        with pytest.raises(ValueError):
            run_memory_savings("moses", pages_per_vm=40, n_vms=2,
                               engine="baseline")
        with pytest.raises(ValueError):
            run_memory_savings("moses", pages_per_vm=40, n_vms=2,
                               engine="vmware")


class TestFunctionalFaces:
    def test_build_functional_types(self, hypervisor):
        machine = MachineConfig(ksm=KSMConfig(pages_to_scan=100))
        ksm = get_backend("ksm").build_bundle(hypervisor, machine)
        assert isinstance(ksm.merger, KSMDaemon)
        uksm = get_backend("uksm").build_bundle(hypervisor, machine)
        assert isinstance(uksm.merger, UKSMDaemon)
        esx = get_backend("esx").build_bundle(hypervisor, machine)
        assert isinstance(esx.merger, ESXStyleMerger)
        pf = get_backend("pageforge").build_bundle(hypervisor, machine)
        assert pf.driver is pf.merger
        assert pf.driver.engine.controller is not None

    def test_baseline_has_no_functional_stack(self, hypervisor):
        assert get_backend("baseline").build_bundle(
            hypervisor, MachineConfig()
        ) is None
        with pytest.raises(ValueError):
            FunctionalHost("test/baseline", backend="baseline", n_vms=1,
                           pages_per_vm=8)

    def test_esx_capture_restore_roundtrip(self, rng):
        from repro.common.units import PAGE_BYTES
        from repro.recovery.serialize import capture_esx, restore_esx

        def build(hyp):
            shared = rng.derive("page").bytes_array(PAGE_BYTES)
            for i in range(3):
                vm = hyp.create_vm(f"vm{i}")
                hyp.populate_page(vm, 0, shared, mergeable=True)
                hyp.populate_page(
                    vm, 1,
                    rng.derive(f"u/{i}").bytes_array(PAGE_BYTES),
                    mergeable=True,
                )
            return ESXStyleMerger(hyp)

        from repro.mem import PhysicalMemory
        from repro.virt import Hypervisor

        merger = build(Hypervisor(physical_memory=PhysicalMemory(64 << 20)))
        merger.scan_pages(4)  # mid-pass: queue is non-empty
        state = capture_esx(merger)

        clone = build(Hypervisor(physical_memory=PhysicalMemory(64 << 20)))
        clone.scan_pages(4)
        restore_esx(clone, state)
        assert clone._buckets == merger._buckets
        assert vars(clone.stats) == vars(merger.stats)
        assert [
            (vm.vm_id, m.gpn) for vm, m in clone._queue
        ] == [(vm.vm_id, m.gpn) for vm, m in merger._queue]


class TestAuditorBoundary:
    @pytest.mark.parametrize("mode", ["uksm", "esx"])
    def test_audited_run_is_clean(self, mode):
        scale = SimulationScale(
            pages_per_vm=100, n_vms=2, duration_s=0.08, warmup_s=0.08,
        )
        auditor = InvariantAuditor(strict=False)
        system = ServerSystem(
            APP, mode=mode, scale=scale, seed=3, auditor=auditor,
        )
        system.run()
        assert auditor.total_checks > 0
        assert auditor.clean, auditor.violations[:3]


def _wiring(hypervisor, bundle, auditor):
    """(hypervisor wraps, daemon audited, engine audited) of one stack."""
    wraps = 0
    merge = hypervisor.merge_pages
    while getattr(merge, "__name__", None) == "audited_merge":
        wraps += 1
        cells = dict(zip(merge.__code__.co_freevars, merge.__closure__))
        merge = cells["real_merge"].cell_contents
    daemon = bundle.daemon if bundle is not None else None
    driver = bundle.driver if bundle is not None else None
    return (
        wraps,
        daemon is not None and daemon.audit_hook == auditor.on_scan_interval,
        driver is not None
        and driver.engine.audit_hook == auditor.on_table_processed,
    )


def _arming(bundle, injector, governor):
    """(controller hooked, engine walk hooked, governor) of one stack."""
    driver = bundle.driver if bundle is not None else None
    if driver is None:
        return (False, False, governor)
    return (
        driver.engine.controller.fault_hook == injector.line_hook,
        driver.engine.walk_fault_hook == injector.walk_hook,
        type(governor),
    )


class TestBundleSurface:
    """The timed system owns a host built as a standalone one is: same
    guests, churn, auditor, fault arming, and hint accounting, all
    through the backend's MergerBundle."""

    @pytest.mark.parametrize("scenario", available_scenarios())
    @pytest.mark.parametrize("mode", available_backends())
    def test_timed_and_functional_faces_wire_alike(self, mode, scenario):
        spec = ScenarioSpec(scenario, "moses", n_vms=2, pages_per_vm=40,
                            seed=9)
        plan = FaultPlan(seed=1)
        timed_auditor = InvariantAuditor()
        system = ServerSystem(
            APP, mode=mode, seed=spec.seed, scenario=spec.scenario,
            scale=SimulationScale(pages_per_vm=spec.pages_per_vm,
                                  n_vms=spec.n_vms),
            auditor=timed_auditor, fault_plan=plan,
        )
        host = spec.host(None if mode == "baseline" else mode,
                         fault_plan=plan, churn=True)
        host_auditor = host.attach_auditor(InvariantAuditor())
        bundle = system.backend.bundle
        assert (bundle is None) == (host.bundle is None)

        # One guest world: frames, VM names, churn population and rate.
        assert frame_digest_counts(system.hypervisor) == host.digests()
        assert [vm.name for vm in system.vms] == [
            vm.name for vm in host.images.vms
        ]
        assert system.churner.churn_pages == host.churner.churn_pages
        assert system.churner.fraction_per_tick == host.churn_fraction

        wiring = _wiring(system.hypervisor, bundle, timed_auditor)
        assert wiring == _wiring(host.hypervisor, host.bundle, host_auditor)
        assert wiring == (
            1, mode in ("ksm", "uksm", "pageforge"), mode == "pageforge",
        )

        timed = system.host
        arming = _arming(bundle, timed.injector, timed.governor)
        assert arming == _arming(host.bundle, host.injector, host.governor)
        if mode == "pageforge":
            assert arming == (True, True, DegradationGovernor)
        else:
            assert arming == (False, False, None)

        hints = tuple(spec.model().merge_hints(host.images))
        offered = host.offer_hints()
        assert system.hint_stats == offered
        assert offered["offered"] == len(hints)
        if bundle is None:
            assert offered == {"offered": len(hints), "accepted": 0,
                               "ignored": len(hints)}
        else:
            assert (offered["accepted"] > 0) == bool(hints)
            assert bundle.scanner.hints_accepted == offered["accepted"]
            assert host.bundle.scanner.hints_accepted == offered["accepted"]

        # The same churn stream: frames still agree after three ticks.
        for _ in range(3):
            system.churner.tick()
            host.churner.tick()
        assert frame_digest_counts(system.hypervisor) == host.digests()


class TestRecovery:
    def test_uksm_run_spec_accepted_and_completes(self, tmp_path):
        spec = RunSpec(
            app="moses", mode="uksm", seed=5, pages_per_vm=40, n_vms=2,
            intervals=4, checkpoint_every=2,
        )
        result = run_to_completion(spec, tmp_path / "uksm-run")
        assert result["merges"] > 0
        assert result["validation"]["auditor_clean"]
        assert result["validation"]["zero_false_merges"]

    def test_esx_run_spec_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            RunSpec(mode="esx")
        assert "recoverable backends" in str(excinfo.value)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(mode="vmware")
