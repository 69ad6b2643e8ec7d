"""Tests for repro.common: units, RNG, configuration."""

import numpy as np
import pytest

from repro.common import (
    CACHE_LINE_BYTES,
    LINES_PER_PAGE,
    PAGE_BYTES,
    TAILBENCH_APPS,
    DeterministicRNG,
    bytes_to_gib,
    cycles_to_seconds,
    default_machine_config,
    gbps,
    seconds_to_cycles,
)
from repro.common.config import CacheConfig


class TestUnits:
    def test_page_geometry(self):
        assert PAGE_BYTES == 4096
        assert CACHE_LINE_BYTES == 64
        assert LINES_PER_PAGE == 64

    def test_seconds_cycles_roundtrip(self):
        cycles = seconds_to_cycles(0.5, 2e9)
        assert cycles == 1_000_000_000
        assert cycles_to_seconds(cycles, 2e9) == pytest.approx(0.5)

    def test_bytes_to_gib(self):
        assert bytes_to_gib(1 << 30) == pytest.approx(1.0)

    def test_gbps(self):
        assert gbps(2e9, 1.0) == pytest.approx(2.0)
        assert gbps(100, 0.0) == 0.0


class TestRNG:
    def test_same_seed_same_stream(self):
        a = DeterministicRNG(42, "x").integers(0, 1000, size=10)
        b = DeterministicRNG(42, "x").integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        a = DeterministicRNG(42, "x").integers(0, 2**60)
        b = DeterministicRNG(42, "y").integers(0, 2**60)
        assert a != b

    def test_derive_is_deterministic(self):
        a = DeterministicRNG(42, "root").derive("child").random()
        b = DeterministicRNG(42, "root").derive("child").random()
        assert a == b

    def test_bytes_array(self):
        arr = DeterministicRNG(1, "b").bytes_array(4096)
        assert arr.dtype == np.uint8
        assert arr.size == 4096


class TestConfig:
    def test_default_machine_matches_table2(self):
        cfg = default_machine_config()
        assert cfg.processor.n_cores == 10
        assert cfg.processor.frequency_hz == 2e9
        assert cfg.processor.l1.size_bytes == 32 * 1024
        assert cfg.processor.l2.size_bytes == 256 * 1024
        assert cfg.processor.l3.size_bytes == 32 * 1024 * 1024
        assert cfg.dram.capacity_bytes == 16 << 30
        assert cfg.dram.channels == 2
        assert cfg.virtualization.n_vms == 10
        assert cfg.virtualization.mem_per_vm_bytes == 512 << 20
        assert cfg.ksm.sleep_millisecs == 5.0
        assert cfg.ksm.pages_to_scan == 400
        assert cfg.pageforge.other_pages_entries == 31
        assert cfg.pageforge.hash_key_bits == 32

    def test_peak_bandwidth(self):
        cfg = default_machine_config()
        assert cfg.dram.peak_bandwidth_bytes_per_sec == 32e9

    def test_tailbench_qps_table3(self):
        assert TAILBENCH_APPS["img-dnn"].qps == 500
        assert TAILBENCH_APPS["masstree"].qps == 500
        assert TAILBENCH_APPS["moses"].qps == 100
        assert TAILBENCH_APPS["silo"].qps == 2000
        assert TAILBENCH_APPS["sphinx"].qps == 1

    def test_page_mix_averages_match_paper(self):
        apps = TAILBENCH_APPS.values()
        unmergeable = np.mean([a.unmergeable_frac for a in apps])
        zero = np.mean([a.zero_frac for a in apps])
        mergeable = np.mean(
            [1.0 - a.unmergeable_frac - a.zero_frac for a in apps]
        )
        assert unmergeable == pytest.approx(0.45, abs=0.02)
        assert zero == pytest.approx(0.05, abs=0.01)
        assert mergeable == pytest.approx(0.50, abs=0.02)

    def test_cache_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=100, ways=4,
                        round_trip_cycles=1, mshrs=1)
        with pytest.raises(ValueError):
            CacheConfig(name="tiny", size_bytes=64, ways=4,
                        round_trip_cycles=1, mshrs=1)

    def test_l3_nonuniform_sets(self):
        cfg = default_machine_config().processor.l3
        assert cfg.n_sets == cfg.n_lines // cfg.ways
