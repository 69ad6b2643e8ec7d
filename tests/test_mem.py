"""Tests for repro.mem: frames, physical memory, DRAM, memory controller."""

import numpy as np
import pytest

from repro.common.config import DRAMConfig
from repro.common.units import CACHE_LINE_BYTES, PAGE_BYTES
from repro.ecc.hamming import encode_line
from repro.mem import (
    AccessSource,
    BandwidthWindow,
    DRAMModel,
    MemoryController,
    OutOfMemoryError,
    PageFrame,
    PhysicalMemory,
)


class TestPageFrame:
    def test_starts_zeroed(self):
        frame = PageFrame(0)
        assert frame.is_zero()

    def test_read_write_line(self, rng):
        frame = PageFrame(1)
        line = rng.bytes_array(CACHE_LINE_BYTES)
        frame.write_line(3, line)
        assert np.array_equal(frame.read_line(3), line)

    def test_line_bounds(self):
        frame = PageFrame(0)
        with pytest.raises(IndexError):
            frame.read_line(64)
        with pytest.raises(IndexError):
            frame.write_line(-1, np.zeros(64, dtype=np.uint8))

    def test_write_invalidates_ecc(self, rng):
        frame = PageFrame(0, rng.bytes_array(PAGE_BYTES))
        codes_before = frame.ecc_codes.copy()
        frame.write_line(0, rng.bytes_array(CACHE_LINE_BYTES))
        assert not np.array_equal(frame.ecc_codes[0], codes_before[0]) or \
            np.array_equal(frame.read_line(0), frame.data[:64])

    def test_ecc_matches_direct_encoding(self, rng):
        frame = PageFrame(0, rng.bytes_array(PAGE_BYTES))
        line = frame.read_line(7)
        assert np.array_equal(frame.ecc_code_for_line(7), encode_line(line))

    def test_write_bytes_bounds(self):
        frame = PageFrame(0)
        with pytest.raises(ValueError):
            frame.write_bytes(PAGE_BYTES - 1, np.zeros(2, dtype=np.uint8))

    def test_same_contents(self, rng):
        data = rng.bytes_array(PAGE_BYTES)
        assert PageFrame(0, data).same_contents(PageFrame(1, data))
        other = data.copy()
        other[100] ^= 1
        assert not PageFrame(0, data).same_contents(PageFrame(1, other))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            PageFrame(0, np.zeros(100, dtype=np.uint8))


class TestPhysicalMemory:
    def test_allocate_and_free(self):
        mem = PhysicalMemory(1024 * 1024)
        frame = mem.allocate()
        assert mem.allocated_frames == 1
        assert mem.is_allocated(frame.ppn)
        mem.decref(frame.ppn)
        assert mem.allocated_frames == 0

    def test_refcounting(self):
        mem = PhysicalMemory(1024 * 1024)
        frame = mem.allocate()
        mem.incref(frame.ppn)
        assert not mem.decref(frame.ppn)
        assert mem.allocated_frames == 1
        assert mem.decref(frame.ppn)
        assert mem.allocated_frames == 0

    def test_double_free_raises(self):
        mem = PhysicalMemory(1024 * 1024)
        frame = mem.allocate()
        mem.decref(frame.ppn)
        with pytest.raises(KeyError):
            mem.decref(frame.ppn)

    def test_exhaustion(self):
        mem = PhysicalMemory(2 * PAGE_BYTES)
        mem.allocate()
        mem.allocate()
        with pytest.raises(OutOfMemoryError):
            mem.allocate()

    def test_ppn_recycling(self):
        mem = PhysicalMemory(2 * PAGE_BYTES)
        a = mem.allocate()
        mem.decref(a.ppn)
        b = mem.allocate()
        assert b.ppn == a.ppn  # freed PPN is reused

    def test_unaligned_capacity_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(PAGE_BYTES + 1)

    def test_peak_tracking(self):
        mem = PhysicalMemory(16 * PAGE_BYTES)
        frames = [mem.allocate() for _ in range(5)]
        for f in frames:
            mem.decref(f.ppn)
        assert mem.peak_allocated == 5
        assert mem.allocated_frames == 0


class TestDRAMModel:
    def test_row_hit_faster_than_miss(self):
        dram = DRAMModel(DRAMConfig(), cpu_frequency_hz=2e9)
        first = dram.access_line(0, 0, False, "core", 0.0)  # row miss
        second = dram.access_line(0, 2, False, "core", 0.0)  # same row? map
        # Accesses to the same (bank,row) after opening are faster.
        again = dram.access_line(0, 0, False, "core", 0.0)
        assert again <= first

    def test_mapping_spreads_channels(self):
        dram = DRAMModel()
        channels = {dram.map_line(0, i)[0] for i in range(8)}
        assert len(channels) == dram.config.channels

    def test_bytes_accounted_by_source(self):
        dram = DRAMModel()
        dram.access_line(0, 0, False, "app", 0.0)
        dram.access_line(0, 1, False, AccessSource.PAGEFORGE, 0.0)
        by_src = dram.stats.bytes_by_source
        assert by_src["app"] == CACHE_LINE_BYTES
        assert by_src["pageforge"] == CACHE_LINE_BYTES

    def test_reset_rows(self):
        dram = DRAMModel()
        dram.access_line(0, 0, False, "core", 0.0)
        dram.reset_rows()
        assert all(r == -1 for r in dram._open_rows)

    def test_row_hit_rate(self):
        dram = DRAMModel()
        dram.access_line(0, 0, False, "core", 0.0)
        dram.access_line(0, 0, False, "core", 0.0)
        assert dram.stats.row_hit_rate == pytest.approx(0.5)


class TestBandwidthWindow:
    def test_peak_and_mean(self):
        win = BandwidthWindow(window_seconds=0.001)
        win.record(0.0000, 1_000_000, "app")
        win.record(0.0005, 1_000_000, "app")
        win.record(0.0015, 500_000, "ksm")
        assert win.peak_gbps() == pytest.approx(2.0)
        _start, breakdown = win.peak_window_breakdown()
        assert breakdown["app"] == pytest.approx(2.0)

    def test_empty(self):
        win = BandwidthWindow()
        assert win.peak_gbps() == 0.0
        assert win.mean_gbps() == 0.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            BandwidthWindow(window_seconds=0)


class TestMemoryController:
    def test_read_returns_data_and_ecc(self, memory, rng):
        mc = MemoryController(0, memory)
        frame = memory.allocate()
        frame.fill(rng.bytes_array(PAGE_BYTES))
        request, data, code = mc.read_line(
            frame.ppn, 0, AccessSource.CORE, 0.0
        )
        assert np.array_equal(data, frame.read_line(0))
        assert np.array_equal(code, encode_line(frame.read_line(0)))
        assert request.latency > 0

    def test_network_serviced_uses_encoder(self, memory, rng):
        mc = MemoryController(0, memory)
        frame = memory.allocate()
        frame.fill(rng.bytes_array(PAGE_BYTES))
        request, _data, code = mc.read_line(
            frame.ppn, 3, AccessSource.PAGEFORGE, 0.0,
            serviced_from_network=True,
        )
        assert request.serviced_from_network
        assert mc.ecc.stats.lines_encoded == 1
        assert np.array_equal(code, encode_line(frame.read_line(3)))
        assert mc.stats.network_serviced == 1

    def test_coalescing(self, memory):
        mc = MemoryController(0, memory)
        frame = memory.allocate()
        r1, _d, _c = mc.read_line(frame.ppn, 0, AccessSource.CORE, 0.0)
        # Second request for the same line while the first is in flight.
        r2, _d, _c = mc.read_line(frame.ppn, 0, AccessSource.PAGEFORGE, 0.0)
        assert r2.coalesced
        assert r2.latency <= r1.latency
        assert mc.stats.coalesced_requests == 1
        assert mc.stats.dram_serviced == 1

    def test_no_coalesce_after_completion(self, memory):
        mc = MemoryController(0, memory)
        frame = memory.allocate()
        mc.read_line(frame.ppn, 0, AccessSource.CORE, 0.0)
        r2, _d, _c = mc.read_line(frame.ppn, 0, AccessSource.CORE, 1.0)
        assert not r2.coalesced

    def test_write_line_updates_frame(self, memory, rng):
        mc = MemoryController(0, memory)
        frame = memory.allocate()
        line = rng.bytes_array(CACHE_LINE_BYTES)
        mc.write_line(frame.ppn, 5, line, AccessSource.CORE, 0.0)
        assert np.array_equal(frame.read_line(5), line)

    def test_expire_pending(self, memory):
        mc = MemoryController(0, memory)
        frame = memory.allocate()
        mc.read_line(frame.ppn, 0, AccessSource.CORE, 0.0)
        assert mc.pending_reads == 1
        mc.expire_pending(10.0)
        assert mc.pending_reads == 0

    def _pending(self, memory, completions):
        mc = MemoryController(0, memory)
        mc._pending_reads.update(
            (addr, completion) for addr, completion in enumerate(completions)
        )
        return mc

    def test_expire_pending_partly_expired(self, memory):
        mc = self._pending(memory, [0.5, 2.0, 1.0, 3.0, 1.0])
        assert mc.expire_pending(1.0) == 3
        assert mc._pending_reads == {1: 2.0, 3: 3.0}
        assert mc.stats.expired_reads == 3
        assert mc.expire_pending(1.5) == 0
        assert mc.stats.expired_reads == 3

    def test_expire_pending_fully_expired(self, memory):
        mc = self._pending(memory, [0.5, 2.0, 1.0])
        # The latest completion equals the time: every entry retires.
        assert mc.expire_pending(2.0) == 3
        assert mc.pending_reads == 0
        assert mc.stats.expired_reads == 3
        assert mc.expire_pending(5.0) == 0  # an empty buffer
        mc._pending_reads[7] = 4.0
        assert mc.flush_pending() == 1
        assert mc.stats.expired_reads == 4

    def test_bytes_transferred(self, memory):
        mc = MemoryController(0, memory)
        frame = memory.allocate()
        mc.read_line(frame.ppn, 0, AccessSource.CORE, 0.0)
        assert mc.bytes_transferred() == CACHE_LINE_BYTES
        assert mc.bytes_transferred("core") == CACHE_LINE_BYTES
