"""Tests for the Scan Table, miss sentinels, ECC hash keys, and the API."""

import numpy as np
import pytest

from repro.common.rng import DeterministicRNG
from repro.common.units import PAGE_BYTES
from repro.core import (
    INVALID_INDEX,
    PageForgeAPI,
    PageForgeEngine,
    ScanTable,
    decode_miss_sentinel,
    ecc_hash_key,
    is_miss_sentinel,
    miss_sentinel,
)
from repro.core.hashkey import ECCHashKeyGenerator, minikey_from_ecc, validate_offsets
from repro.ecc.hamming import encode_page
from repro.mem import MemoryController


class TestScanTable:
    def test_geometry(self):
        table = ScanTable(31)
        assert len(table.entries) == 31
        assert not table.pfe.valid

    def test_storage_near_260_bytes(self):
        # Table 2 reports ~260 B for 31 Other Pages + 1 PFE.
        table = ScanTable(31)
        assert 220 <= table.storage_bytes() <= 300

    def test_index_validity(self):
        table = ScanTable(4)
        assert not table.index_valid(0)  # empty entry
        table.entries[0].valid = True
        assert table.index_valid(0)
        assert not table.index_valid(-1)
        assert not table.index_valid(4)
        assert not table.index_valid(miss_sentinel(0, "left"))

    def test_clear(self):
        table = ScanTable(4)
        table.entries[2].valid = True
        table.pfe.valid = True
        table.clear()
        assert not table.entries[2].valid
        assert not table.pfe.valid

    def test_entry_access_raises_on_invalid(self):
        table = ScanTable(4)
        with pytest.raises(IndexError):
            table.entry(0)


class TestMissSentinels:
    def test_roundtrip(self):
        for index in (0, 7, 30):
            for direction in ("left", "right"):
                sentinel = miss_sentinel(index, direction)
                assert is_miss_sentinel(sentinel)
                assert decode_miss_sentinel(sentinel) == (index, direction)

    def test_sentinels_are_invalid_indices(self):
        table = ScanTable(31)
        for entry in table.entries:
            entry.valid = True
        assert not table.index_valid(miss_sentinel(30, "right"))

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            miss_sentinel(0, "up")

    def test_decode_non_sentinel(self):
        with pytest.raises(ValueError):
            decode_miss_sentinel(5)

    def test_invalid_index_not_sentinel(self):
        assert not is_miss_sentinel(INVALID_INDEX)


class TestECCHashKey:
    def test_key_is_32_bits(self, random_page):
        key = ecc_hash_key(random_page)
        assert 0 <= key < 2**32

    def test_key_concatenates_minikeys(self, random_page):
        codes = encode_page(random_page)
        offsets = (0, 16, 32, 48)
        expected = 0
        for i, line in enumerate(offsets):
            expected |= int(codes[line][0]) << (8 * i)
        assert ecc_hash_key(random_page, offsets) == expected

    def test_key_changes_with_hashed_line(self, random_page):
        base = ecc_hash_key(random_page)
        changed = random_page.copy()
        changed[0] ^= 0xFF  # inside line 0, which is hashed
        assert ecc_hash_key(changed) != base

    def test_key_blind_outside_hashed_lines(self, random_page):
        base = ecc_hash_key(random_page)
        changed = random_page.copy()
        changed[5 * 64] ^= 0xFF  # line 5 is not a hash offset
        assert ecc_hash_key(changed) == base  # the known false-positive case

    def test_offsets_validated_per_section(self):
        with pytest.raises(ValueError):
            validate_offsets((0, 1, 2, 3))  # all in section 0
        with pytest.raises(ValueError):
            validate_offsets((0, 16))  # wrong count
        assert validate_offsets((15, 31, 47, 63)) == (15, 31, 47, 63)

    def test_custom_offsets(self):
        """Retuned offsets (update_ECC_offset) shift which changes a key
        sees: a write in line 17 is invisible to the default offsets and
        visible once line 17 is sampled."""
        page = DeterministicRNG(11, "offsets").bytes_array(PAGE_BYTES)
        changed = page.copy()
        changed[17 * 64] ^= 0xFF
        default, retuned = (0, 16, 32, 48), (0, 17, 32, 48)
        assert ecc_hash_key(changed, default) == ecc_hash_key(page, default)
        assert ecc_hash_key(changed, retuned) != ecc_hash_key(page, retuned)

    def test_minikey_widths(self):
        code = np.array([0xAB, 0xCD, 1, 2, 3, 4, 5, 6], dtype=np.uint8)
        assert minikey_from_ecc(code, 8) == 0xAB
        assert minikey_from_ecc(code, 4) == 0xB
        assert minikey_from_ecc(code, 16) == 0xCDAB


class TestKeyGenerator:
    def test_incremental_assembly(self, random_page):
        gen = ECCHashKeyGenerator()
        codes = encode_page(random_page)
        assert not gen.ready
        for line in (0, 16, 32, 48):
            gen.observe(line, codes[line])
        assert gen.ready
        assert gen.key() == ecc_hash_key(random_page)

    def test_irrelevant_lines_ignored(self, random_page):
        gen = ECCHashKeyGenerator()
        codes = encode_page(random_page)
        assert not gen.observe(5, codes[5])
        assert gen.observe(0, codes[0])
        assert not gen.observe(0, codes[0])  # already have section 0

    def test_missing_lines(self):
        gen = ECCHashKeyGenerator()
        assert gen.missing_lines() == [0, 16, 32, 48]
        gen.observe(16, np.zeros(8, dtype=np.uint8))
        assert gen.missing_lines() == [0, 32, 48]

    def test_key_before_ready_raises(self):
        gen = ECCHashKeyGenerator()
        with pytest.raises(RuntimeError):
            gen.key()

    def test_reset(self, random_page):
        gen = ECCHashKeyGenerator()
        codes = encode_page(random_page)
        for line in (0, 16, 32, 48):
            gen.observe(line, codes[line])
        gen.reset()
        assert not gen.ready


class TestAPI:
    def _api(self, memory):
        mc = MemoryController(0, memory)
        engine = PageForgeEngine(mc)
        return PageForgeAPI(engine)

    def test_insert_ppn(self, memory):
        api = self._api(memory)
        api.insert_PPN(3, ppn=42, less=1, more=2)
        entry = api.table.entries[3]
        assert entry.valid and entry.ppn == 42
        assert (entry.less, entry.more) == (1, 2)

    def test_insert_pfe_resets_state(self, memory):
        api = self._api(memory)
        api.insert_PFE(ppn=7, last_refill=True, ptr=0)
        pfe = api.table.pfe
        assert pfe.valid and pfe.ppn == 7 and pfe.last_refill
        assert not pfe.scanned and not pfe.duplicate

    def test_update_pfe_requires_candidate(self, memory):
        api = self._api(memory)
        with pytest.raises(RuntimeError):
            api.update_PFE(last_refill=False, ptr=0)

    def test_get_pfe_info_hides_unready_hash(self, memory):
        api = self._api(memory)
        api.insert_PFE(ppn=1)
        info = api.get_PFE_info()
        assert info.hash_key is None
        assert not info.hash_ready

    def test_update_ecc_offset(self, memory):
        api = self._api(memory)
        api.update_ECC_offset((3, 19, 35, 51))
        assert api.engine.keygen.line_offsets == (3, 19, 35, 51)

    def test_trigger_without_pfe_raises(self, memory):
        api = self._api(memory)
        with pytest.raises(RuntimeError):
            api.trigger()
