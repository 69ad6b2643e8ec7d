"""Tests for repro.workloads: memory images, churn, load generation."""

import numpy as np
import pytest

from repro.common.config import KSMConfig, TAILBENCH_APPS
from repro.common.rng import DeterministicRNG
from repro.ksm import KSMDaemon
from repro.mem import PhysicalMemory
from repro.virt import Hypervisor
from repro.workloads import (
    ArrivalProcess,
    LatencyCollector,
    MemoryImageProfile,
    QueryRecord,
    ServiceTimeModel,
    WriteChurner,
    build_vm_images,
)
from repro.workloads.memimage import ContentFactory


@pytest.fixture
def built(rng):
    hyp = Hypervisor(physical_memory=PhysicalMemory(256 * 1024 * 1024))
    profile = MemoryImageProfile(n_pages_per_vm=100)
    images = build_vm_images(hyp, profile, n_vms=4, rng=rng)
    return hyp, profile, images


class TestProfile:
    def test_counts_sum_to_total(self):
        profile = MemoryImageProfile(n_pages_per_vm=1000)
        assert sum(profile.counts()) == 1000

    def test_for_app(self):
        app = TAILBENCH_APPS["moses"]
        profile = MemoryImageProfile.for_app(app, 500)
        assert profile.unmergeable_frac == app.unmergeable_frac
        assert profile.zero_frac == app.zero_frac

    def test_default_mix_matches_paper(self):
        profile = MemoryImageProfile(n_pages_per_vm=1000)
        n_unique, n_churn, n_zero, n_all, n_pair = profile.counts()
        assert (n_unique + n_churn) == pytest.approx(450, abs=5)
        assert n_zero == pytest.approx(50, abs=5)
        assert (n_all + n_pair) == pytest.approx(500, abs=5)


class TestContentFactory:
    def test_pages_unique(self, rng):
        factory = ContentFactory(rng)
        pages = {factory.make().tobytes() for _ in range(200)}
        assert len(pages) == 200

    def test_common_prefix_shared(self, rng):
        factory = ContentFactory(rng, common_prefix_bytes=640)
        a, b = factory.make(), factory.make()
        assert np.array_equal(a[:640], b[:640])
        assert not np.array_equal(a, b)

    def test_mutations_beyond_prefix(self, rng):
        factory = ContentFactory(rng, n_templates=1,
                                 common_prefix_bytes=640)
        template = factory.templates[0]
        page = factory.make()
        assert np.array_equal(page[:640], template[:640])


class TestBuildImages:
    def test_footprints(self, built):
        hyp, _profile, _images = built
        assert hyp.guest_pages() == 400
        assert hyp.footprint_pages() == 400

    def test_shared_pages_identical_across_vms(self, built):
        hyp, _profile, images = built
        gpns = images.category_gpns["shared_all"]
        if not gpns:
            pytest.skip("no shared pages at this size")
        gpn = gpns.start
        contents = [
            hyp.guest_read(vm, gpn).tobytes() for vm in images.vms
        ]
        assert len(set(contents)) == 1

    def test_unique_pages_differ_across_vms(self, built):
        hyp, _profile, images = built
        gpn = images.category_gpns["unique"].start
        contents = [
            hyp.guest_read(vm, gpn).tobytes() for vm in images.vms
        ]
        assert len(set(contents)) == len(images.vms)

    def test_zero_pages_are_zero(self, built):
        hyp, _profile, images = built
        zeros = images.category_gpns["zero"]
        frame = hyp.memory.frame(images.vms[0].translate(zeros.start))
        assert frame.is_zero()

    def test_all_pages_madvised(self, built):
        _hyp, _profile, images = built
        for vm in images.vms:
            assert len(vm.mergeable_mappings()) == vm.n_pages

    def test_expected_footprint_reached_by_ksm(self, built):
        hyp, _profile, images = built
        daemon = KSMDaemon(hyp, KSMConfig(pages_to_scan=2000))
        daemon.run_to_steady_state(max_passes=6)
        assert hyp.footprint_pages() == images.expected_merged_footprint()
        hyp.verify_consistency()

    def test_pair_sharing_structure(self, rng):
        hyp = Hypervisor(physical_memory=PhysicalMemory(128 * 1024 * 1024))
        profile = MemoryImageProfile(n_pages_per_vm=50, all_shared_frac=0.0)
        images = build_vm_images(hyp, profile, n_vms=4, rng=rng)
        gpn = images.category_gpns["pair_shared"].start
        c = [hyp.guest_read(vm, gpn).tobytes() for vm in images.vms]
        assert c[0] == c[1] and c[2] == c[3] and c[0] != c[2]


class TestWriteChurner:
    def test_churn_changes_contents(self, built):
        hyp, _profile, images = built
        churner = WriteChurner(hyp, images.churn_pages,
                               DeterministicRNG(5, "churn"),
                               fraction_per_tick=1.0)
        vm_id, gpn = images.churn_pages[0]
        before = hyp.guest_read(hyp.vms[vm_id], gpn).copy()
        churner.tick()
        after = hyp.guest_read(hyp.vms[vm_id], gpn)
        assert not np.array_equal(before, after)

    def test_churn_breaks_merged_pages(self, built):
        hyp, _profile, images = built
        daemon = KSMDaemon(hyp, KSMConfig(pages_to_scan=2000))
        daemon.run_to_steady_state(max_passes=6)
        merged = hyp.footprint_pages()
        churner = WriteChurner(hyp, images.churn_pages,
                               DeterministicRNG(5, "churn"),
                               fraction_per_tick=1.0)
        churner.tick()
        # Churn pages were duplicated-and-merged? They merged because the
        # churner had not run; writing must CoW-break them.
        assert hyp.footprint_pages() >= merged
        hyp.verify_consistency()

    def test_empty_churn_list(self, built):
        hyp, _profile, _images = built
        churner = WriteChurner(hyp, [], DeterministicRNG(5, "churn"))
        assert churner.tick() == 0

    def test_fraction_per_tick_bounds_writes(self, built):
        hyp, _profile, images = built
        churner = WriteChurner(hyp, images.churn_pages,
                               DeterministicRNG(5, "churn"),
                               fraction_per_tick=0.5)
        written = churner.tick()
        expected = max(1, int(len(images.churn_pages) * 0.5))
        assert written == expected
        assert churner.writes_issued == expected

    def test_tiny_fraction_still_churns_one_page(self, built):
        hyp, _profile, images = built
        churner = WriteChurner(hyp, images.churn_pages,
                               DeterministicRNG(5, "churn"),
                               fraction_per_tick=1e-9)
        assert churner.tick() == 1

    def test_churn_is_seed_deterministic(self, rng):
        def run_once():
            hyp = Hypervisor(
                physical_memory=PhysicalMemory(256 * 1024 * 1024)
            )
            images = build_vm_images(
                hyp, MemoryImageProfile(n_pages_per_vm=100), n_vms=4,
                rng=DeterministicRNG(1234, "tests"),
            )
            churner = WriteChurner(hyp, images.churn_pages,
                                   DeterministicRNG(5, "churn"),
                                   fraction_per_tick=0.5)
            for _ in range(3):
                churner.tick()
            return [
                hyp.guest_read(hyp.vms[vm_id], gpn).tobytes()
                for vm_id, gpn in images.churn_pages
            ]

        assert run_once() == run_once()


class TestArrivals:
    def test_rate_approximation(self):
        process = ArrivalProcess(1000.0, DeterministicRNG(3, "arr"))
        times = process.arrivals_until(2.0)
        assert len(times) == pytest.approx(2000, rel=0.15)
        assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ArrivalProcess(0, DeterministicRNG(3, "arr"))

    def test_seed_determinism(self):
        first = ArrivalProcess(
            500.0, DeterministicRNG(3, "arr")
        ).arrivals_until(1.0)
        second = ArrivalProcess(
            500.0, DeterministicRNG(3, "arr")
        ).arrivals_until(1.0)
        assert first == second

    def test_rate_scales_arrival_count(self):
        slow = ArrivalProcess(
            100.0, DeterministicRNG(3, "arr")
        ).arrivals_until(2.0)
        fast = ArrivalProcess(
            1000.0, DeterministicRNG(3, "arr")
        ).arrivals_until(2.0)
        assert len(fast) > 5 * len(slow)


class TestServiceModel:
    def test_factor_mean_is_one(self):
        model = ServiceTimeModel(0.8, DeterministicRNG(4, "svc"))
        factors = [model.factor() for _ in range(20000)]
        assert np.mean(factors) == pytest.approx(1.0, rel=0.05)

    def test_cv_respected(self):
        model = ServiceTimeModel(0.5, DeterministicRNG(4, "svc"))
        factors = np.array([model.factor() for _ in range(20000)])
        assert np.std(factors) / np.mean(factors) == pytest.approx(
            0.5, rel=0.1
        )


class TestLatencyCollector:
    def _record(self, vm, arrival, wait, service):
        return QueryRecord(vm, arrival, arrival + wait,
                           arrival + wait + service)

    def test_sojourn_components(self):
        r = self._record(0, 1.0, 0.5, 2.0)
        assert r.sojourn_s == pytest.approx(2.5)
        assert r.wait_s == pytest.approx(0.5)
        assert r.service_s == pytest.approx(2.0)

    def test_mean_and_p95(self):
        collector = LatencyCollector()
        for i in range(100):
            collector.add(self._record(0, float(i), 0.0, (i + 1) / 100))
        assert collector.mean_sojourn_s() == pytest.approx(0.505)
        assert collector.p95_sojourn_s() == pytest.approx(0.955, abs=0.01)

    def test_geomean_across_vms(self):
        collector = LatencyCollector()
        collector.add(self._record(0, 0.0, 0.0, 1.0))
        collector.add(self._record(1, 0.0, 0.0, 4.0))
        assert collector.geomean_mean_sojourn_s() == pytest.approx(2.0)

    def test_drop_warmup(self):
        collector = LatencyCollector()
        collector.add(self._record(0, 0.5, 0.0, 1.0))
        collector.add(self._record(0, 2.0, 0.0, 1.0))
        collector.drop_warmup(1.0)
        assert len(collector) == 1

    def test_empty_stats(self):
        collector = LatencyCollector()
        assert collector.mean_sojourn_s() == 0.0
        assert collector.geomean_p95_sojourn_s() == 0.0
