"""Tests for the scenario registry, hint fast-path, and cold-start study."""

import pytest

from repro.common.config import KSMConfig, TAILBENCH_APPS
from repro.fleet import FleetSpec
from repro.fleet.shard import frame_digest_counts, run_shard, shard_tasks
from repro.ksm import KSMDaemon
from repro.mem import PhysicalMemory
from repro.scenarios import (
    ScenarioSpec,
    WorkloadModel,
    available_scenarios,
    get_scenario,
    run_cold_start_study,
)
from repro.sim.system import ServerSystem, SimulationScale
from repro.verify.invariants import InvariantAuditor
from repro.virt import Hypervisor
from repro.workloads import MemoryImageProfile, build_vm_images
from repro.workloads.tailbench import ArrivalProcess

TINY = SimulationScale(
    pages_per_vm=60, n_vms=2, duration_s=0.05, warmup_s=0.05
)

# The cold-start study's floors: 70% of what 4 sandboxes x 64 pages
# read at seeds 11 and 2017 (savings 0.95349, speedup 1.5).
COLD_START_SAVINGS_FLOOR = 0.7 * 0.95349
HINT_SPEEDUP_FLOOR = 0.7 * 1.5


def _fresh_hypervisor(mib=256):
    return Hypervisor(physical_memory=PhysicalMemory(mib * 1024 * 1024))


class TestRegistry:
    def test_at_least_four_scenarios(self):
        names = available_scenarios()
        assert len(names) >= 4
        for expected in ("steady_state", "tailbench", "churn",
                         "serverless"):
            assert expected in names

    def test_sorted_and_stable(self):
        assert list(available_scenarios()) == sorted(available_scenarios())

    def test_get_scenario_returns_class(self):
        cls = get_scenario("steady_state")
        assert issubclass(cls, WorkloadModel)
        assert cls.name == "steady_state"

    def test_unknown_scenario_lists_registry(self):
        with pytest.raises(ValueError) as excinfo:
            get_scenario("warehouse")
        message = str(excinfo.value)
        assert "warehouse" in message
        for name in available_scenarios():
            assert name in message


class TestScenarioSpec:
    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            ScenarioSpec(scenario="warehouse")

    def test_rejects_unknown_app(self):
        with pytest.raises(ValueError):
            ScenarioSpec(app="notanapp")

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_vms=0)
        with pytest.raises(ValueError):
            ScenarioSpec(pages_per_vm=0)

    def test_build_images_produces_vms(self):
        spec = ScenarioSpec(scenario="serverless", n_vms=3,
                            pages_per_vm=60)
        host = spec.host()
        assert len(host.images.vms) == 3
        assert host.hypervisor.guest_pages() == 3 * 60


class TestSteadyStateEquivalence:
    """The default scenario must be the legacy workload, bit for bit."""

    def test_images_match_legacy_builder(self):
        app = TAILBENCH_APPS["moses"]
        spec = ScenarioSpec(scenario="steady_state", n_vms=4,
                            pages_per_vm=80)

        hyp_new = spec.host().hypervisor

        hyp_old = _fresh_hypervisor()
        profile = MemoryImageProfile.for_app(app, 80)
        build_vm_images(hyp_old, profile, n_vms=4, rng=spec.content_rng())

        assert frame_digest_counts(hyp_new) == frame_digest_counts(hyp_old)

    def test_arrival_qps_unchanged(self):
        app = TAILBENCH_APPS["moses"]
        model = get_scenario("steady_state")()
        assert model.arrival_qps(app) == app.qps

    def test_no_hints(self):
        spec = ScenarioSpec(scenario="steady_state")
        images = spec.host().images
        assert tuple(spec.model().merge_hints(images)) == ()


class TestScenarioShapes:
    def test_tailbench_overdrives_load(self):
        app = TAILBENCH_APPS["moses"]
        model = get_scenario("tailbench")()
        assert model.arrival_qps(app) > app.qps

    def test_churn_profile_has_more_churn(self):
        app = TAILBENCH_APPS["moses"]
        base = get_scenario("steady_state")().image_profile(app, 400)
        churny = get_scenario("churn")().image_profile(app, 400)
        assert churny.churn_frac > base.churn_frac
        assert churny.counts()[1] > base.counts()[1]

    def test_serverless_hints_cover_fast_categories(self):
        spec = ScenarioSpec(scenario="serverless", n_vms=2,
                            pages_per_vm=60)
        images = spec.host().images
        hints = tuple(spec.model().merge_hints(images))
        assert hints
        expected = set()
        for category in ("zero", "shared_all"):
            for vm in images.vms:
                for gpn in images.category_gpns[category]:
                    expected.add((vm.vm_id, gpn))
        assert set(hints) == expected


class TestSeedDeterminism:
    """Any registered scenario replays bit-identically from its seed."""

    def _fingerprint(self, spec):
        host = spec.host()
        hints = tuple(spec.model().merge_hints(host.images))
        app = spec.app_config
        arrivals = tuple(
            ArrivalProcess(
                spec.model().arrival_qps(app),
                spec.content_rng().derive("arrivals"),
            ).arrivals_until(0.5)
        )
        return frame_digest_counts(host.hypervisor), hints, arrivals

    @pytest.mark.parametrize("scenario", available_scenarios())
    def test_replay_is_bit_identical(self, scenario):
        spec = ScenarioSpec(scenario=scenario, n_vms=2, pages_per_vm=60,
                            seed=97)
        assert self._fingerprint(spec) == self._fingerprint(spec)

    def test_property_seed_determinism(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=10, deadline=None)
        @given(
            scenario=st.sampled_from(available_scenarios()),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            n_vms=st.integers(min_value=1, max_value=3),
            pages_per_vm=st.sampled_from((40, 60, 80)),
        )
        def check(scenario, seed, n_vms, pages_per_vm):
            spec = ScenarioSpec(scenario=scenario, n_vms=n_vms,
                                pages_per_vm=pages_per_vm, seed=seed)
            assert self._fingerprint(spec) == self._fingerprint(spec)

        check()


class TestHintEnqueue:
    def _hinted_world(self):
        spec = ScenarioSpec(scenario="serverless", n_vms=2,
                            pages_per_vm=60)
        host = spec.host()
        hints = tuple(spec.model().merge_hints(host.images))
        return host.hypervisor, host.images, hints

    def test_bogus_hints_rejected(self):
        hyp, _images, _hints = self._hinted_world()
        daemon = KSMDaemon(hyp, KSMConfig(pages_to_scan=500))
        accepted = daemon.enqueue_hints([("no-such-vm", 0), ("vm0", 10**6)])
        assert accepted == 0
        assert daemon.hints_accepted == 0

    def test_hinted_pages_merge_in_first_interval(self):
        hyp, _images, hints = self._hinted_world()
        daemon = KSMDaemon(hyp, KSMConfig(pages_to_scan=500))
        accepted = daemon.enqueue_hints(hints)
        assert accepted == len(hints)
        before = hyp.footprint_pages()
        daemon.scan_pages(len(hints))
        assert hyp.footprint_pages() < before
        hyp.verify_consistency()

    def test_unhinted_first_interval_merges_nothing(self):
        hyp, _images, hints = self._hinted_world()
        daemon = KSMDaemon(hyp, KSMConfig(pages_to_scan=500))
        before = hyp.footprint_pages()
        # Same budget, no hints: pass 1 only seeds checksums (the
        # stability gate), so no frame is reclaimed yet.
        daemon.scan_pages(len(hints))
        assert hyp.footprint_pages() == before


class TestBackendHintStats:
    def _run(self, mode):
        auditor = InvariantAuditor()
        system = ServerSystem(
            TAILBENCH_APPS["moses"], mode=mode, scale=TINY, seed=7,
            scenario="serverless", auditor=auditor,
        )
        system.run()
        return system.hint_stats, auditor

    def test_baseline_ignores_all_hints(self):
        stats, auditor = self._run("baseline")
        assert stats["offered"] > 0
        assert stats["accepted"] == 0
        assert stats["ignored"] == stats["offered"]
        assert auditor.clean

    @pytest.mark.parametrize("mode", ["ksm", "uksm", "esx", "pageforge"])
    def test_merging_backends_accept_hints(self, mode):
        stats, auditor = self._run(mode)
        assert stats["offered"] > 0
        assert stats["accepted"] > 0
        assert stats["accepted"] + stats["ignored"] == stats["offered"]
        assert auditor.clean

    def test_steady_state_offers_no_hints(self):
        system = ServerSystem(
            TAILBENCH_APPS["moses"], mode="ksm", scale=TINY, seed=7,
        )
        assert system.hint_stats == {
            "offered": 0, "accepted": 0, "ignored": 0,
        }

    def test_scenario_metrics_published(self):
        system = ServerSystem(
            TAILBENCH_APPS["moses"], mode="ksm", scale=TINY, seed=7,
            scenario="serverless",
        )
        system.run()
        snapshot = system.metrics.snapshot()
        assert snapshot["scenario/hints_offered"] > 0
        assert snapshot["scenario/hints_accepted"] > 0


class TestColdStartStudy:
    def test_hints_speed_up_and_stay_auditor_clean(self):
        for seed in (11, 2017):
            study = run_cold_start_study(
                backend="ksm", n_sandboxes=4, pages_per_vm=64, seed=seed,
            )
            assert study.auditor_clean
            assert study.footprints_equal
            assert study.hints_accepted > 0
            assert study.reclaimable_pages > 0
            assert (COLD_START_SAVINGS_FLOOR
                    <= study.cold_start_savings_frac <= 1.0)
            # The hinted run reclaims strictly more in interval 1 and
            # reaches steady state faster.
            assert (study.hinted_first_interval_pages
                    < study.unhinted_first_interval_pages)
            assert study.hint_speedup >= HINT_SPEEDUP_FLOOR

    def test_metrics_payload_round_trips(self):
        study = run_cold_start_study(
            backend="ksm", n_sandboxes=4, pages_per_vm=64, seed=11,
        )
        payload = study.metrics()
        assert payload["cold_start_savings_frac"] == pytest.approx(
            study.cold_start_savings_frac
        )
        assert payload["hint_speedup"] == pytest.approx(study.hint_speedup)

    def test_auditor_wraps_each_hypervisor_once(self, monkeypatch):
        # A second wrap would audit every merge twice (and double-count
        # auditor_checks): each run's hypervisor is attached exactly once.
        attached = []
        real_attach = InvariantAuditor.attach_hypervisor

        def recording_attach(auditor, hypervisor):
            attached.append(hypervisor)
            return real_attach(auditor, hypervisor)

        monkeypatch.setattr(
            InvariantAuditor, "attach_hypervisor", recording_attach
        )
        run_cold_start_study(backend="ksm", n_sandboxes=2, pages_per_vm=32)
        assert len(attached) == 2
        assert attached[0] is not attached[1]


class TestFleetScenarios:
    def test_heterogeneous_cycles_scenarios(self):
        spec = FleetSpec.heterogeneous(
            4, ("ksm",), scenarios=("steady_state", "serverless"),
            n_vms=2, pages_per_vm=40,
        )
        assert [h.scenario for h in spec.hosts] == [
            "steady_state", "serverless", "steady_state", "serverless",
        ]

    def test_unknown_scenario_lists_registry(self):
        with pytest.raises(ValueError) as excinfo:
            FleetSpec.heterogeneous(2, ("ksm",), scenarios=("warehouse",))
        message = str(excinfo.value)
        assert "warehouse" in message
        assert "registered scenarios" in message

    def test_shard_carries_scenario_end_to_end(self):
        spec = FleetSpec.uniform(
            1, backend="ksm", n_vms=2, pages_per_vm=40,
            duration_s=0.05, warmup_s=0.05, scenario="serverless",
        )
        (task,) = shard_tasks(spec)
        assert task.scenario == "serverless"
        result = run_shard(task)
        assert result.scenario == "serverless"


class TestCliScenarioErrors:
    def test_run_rejects_unknown_scenario(self, capsys):
        from repro.cli import main

        rc = main(["run", "--scenario", "warehouse", "--apps", "moses"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "registered scenarios" in err

    def test_fleet_rejects_unknown_scenario(self, capsys):
        from repro.cli import main

        rc = main(["fleet", "--scenario", "warehouse", "--shards", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "registered scenarios" in err

    def test_loadgen_rejects_unknown_scenario(self, capsys):
        from repro.cli import main

        rc = main(["loadgen", "--url", "http://127.0.0.1:1",
                   "--scenario", "warehouse"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "registered scenarios" in err


class TestServeLoadSpec:
    def test_resolved_defaults_are_legacy_constants(self):
        from repro.serve.loadgen import LoadSpec

        spec = LoadSpec().resolved()
        assert spec.heavy_frac == 0.1
        assert spec.heavy_pages == 400
        assert spec.light_kind == "read"

    def test_serverless_mix_comes_from_scenario(self):
        from repro.serve.loadgen import LoadSpec

        model = get_scenario("serverless")()
        spec = LoadSpec(scenario="serverless").resolved()
        assert spec.heavy_frac == model.serve_heavy_frac
        assert spec.heavy_pages == model.serve_heavy_pages
        assert spec.light_kind == model.serve_light_kind

    def test_explicit_mix_overrides_scenario(self):
        from repro.serve.loadgen import LoadSpec

        spec = LoadSpec(scenario="serverless", heavy_frac=0.9).resolved()
        assert spec.heavy_frac == 0.9
        assert spec.heavy_pages == 200  # still the scenario's

    def test_unknown_scenario_raises(self):
        from repro.serve.loadgen import LoadSpec

        with pytest.raises(ValueError):
            LoadSpec(scenario="warehouse")

    def test_schedule_heavier_under_serverless(self):
        from repro.serve.loadgen import LoadSpec, _build_schedule

        def heavy_share(scenario):
            spec = LoadSpec(target_qps=2000.0, duration_s=1.0, seed=3,
                            scenario=scenario)
            schedule = _build_schedule(spec)
            return sum(1 for _i, _t, heavy, _ten in schedule if heavy) / len(
                schedule
            )

        assert heavy_share("serverless") > heavy_share("steady_state")


class TestAtomicExports:
    def test_all_export_paths_use_atomic_writes(self, tmp_path,
                                                monkeypatch):
        import repro.analysis.export as export

        calls = []

        def recorder(path, text):
            calls.append(str(path))

        monkeypatch.setattr(export, "atomic_write_text", recorder)
        rows = [{"a": 1, "b": 2.5}]
        export.rows_to_csv(rows, tmp_path / "rows.csv")
        export.rows_to_json(rows, tmp_path / "rows.json")
        assert len(calls) == 2
        # The stub never wrote, so nothing may have bypassed it.
        assert not (tmp_path / "rows.csv").exists()
        assert not (tmp_path / "rows.json").exists()
