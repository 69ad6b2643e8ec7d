"""Figure 8 (Sections 3.3, 6.2) and the ECC-key ablation.

Figure 8 claims: both keys match on most comparisons, and the ECC key
shows slightly more matches — all false positives, a few percent of
comparisons on average (paper: 3.7%).  ``python -m repro hashkeys``
renders the figure.

The ablation sweeps the minikey width against the dirty-burst size and
checks that each key's miss rate follows its coverage geometry: the ECC
key senses four 8-byte words of the page, jhash2 the first 1 KB.
"""

import numpy as np
import pytest

from repro.common.config import TAILBENCH_APPS
from repro.common.rng import DeterministicRNG
from repro.common.units import PAGE_BYTES
from repro.core.hashkey import ecc_hash_key
from repro.ksm.jhash import page_checksum
from repro.sim import run_hash_key_study


@pytest.fixture(scope="module")
def hash_results():
    return [
        run_hash_key_study(app, pages_per_vm=200, n_vms=3, n_passes=6)
        for app in TAILBENCH_APPS
    ]


def test_every_app_compares(hash_results):
    for r in hash_results:
        assert r.comparisons > 0, r.app_name


def test_ecc_keys_have_more_matches(hash_results):
    """ECC keys sample fewer bytes, so they miss more changes."""
    for r in hash_results:
        assert r.ecc_match_frac >= r.jhash_match_frac, r.app_name


def test_extra_false_positives_in_paper_range(hash_results):
    extra = np.mean([r.extra_ecc_false_positive_frac for r in hash_results])
    assert 0.005 <= extra <= 0.12, extra


def test_mismatch_never_false(hash_results):
    """A key mismatch guarantees the page changed: false positives live
    entirely on the match side."""
    for r in hash_results:
        assert r.jhash_matches + r.jhash_mismatches == r.comparisons
        assert r.ecc_matches + r.ecc_mismatches == r.comparisons
        assert r.jhash_false_positives <= r.jhash_matches
        assert r.ecc_false_positives <= r.ecc_matches


# ECC-key ablation ------------------------------------------------------------------


def _missed_fractions(minikey_bits, write_bytes):
    """(ECC, jhash) fraction of 250 random page writes each key misses.

    ``write_bytes`` is the dirty burst size: 1 is a lone flag update,
    256 a structure or buffer write.  The ECC key samples the default
    lines (0, 16, 32, 48).
    """
    offsets = (0, 16, 32, 48)
    n_pages = 250
    rng = DeterministicRNG(5, f"ablate-key-{minikey_bits}-{offsets}")
    missed_ecc = 0
    missed_jhash = 0
    for _ in range(n_pages):
        page = rng.bytes_array(PAGE_BYTES)
        before_ecc = ecc_hash_key(page, offsets, minikey_bits)
        before_jhash = page_checksum(page)
        offset = int(rng.integers(0, PAGE_BYTES - write_bytes + 1))
        burst = rng.bytes_array(write_bytes)
        page[offset : offset + write_bytes] ^= (burst | np.uint8(1))
        if ecc_hash_key(page, offsets, minikey_bits) == before_ecc:
            missed_ecc += 1
        if page_checksum(page) == before_jhash:
            missed_jhash += 1
    return missed_ecc / n_pages, missed_jhash / n_pages


@pytest.fixture(scope="module")
def key_sweep():
    """``{(minikey_bits, write_bytes): (ecc_missed, jhash_missed)}``."""
    return {
        (bits, write_bytes): _missed_fractions(bits, write_bytes)
        for bits in (4, 8, 16)
        for write_bytes in (1, 256)
    }


def test_ecc_key_misses_more_than_jhash(key_sweep):
    """The Figure 8 effect on random writes: the ECC key's narrow (but
    free) coverage misses more changes than jhash's 1 KB window."""
    for point, (ecc, jhash) in key_sweep.items():
        assert ecc >= jhash - 0.02, (point, ecc, jhash)


def test_miss_rate_follows_coverage(key_sweep):
    single_ecc, single_jhash = key_sweep[(8, 1)]
    assert 0.95 <= single_ecc <= 1.0
    assert 0.65 <= single_jhash <= 0.85
    # A 256 B burst overlaps a sampled word more often.
    burst_ecc, burst_jhash = key_sweep[(8, 256)]
    assert burst_ecc <= single_ecc
    assert burst_jhash <= single_jhash
