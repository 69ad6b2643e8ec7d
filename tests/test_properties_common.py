"""Hypothesis property tests for ``common/units``.

The unit conversions sit under the timing model and were only exercised
indirectly before; these pin down their algebraic properties directly.
"""

import pytest
from hypothesis import given, strategies as st

from repro.common.units import (
    CACHE_LINE_BYTES,
    GIB,
    LINES_PER_PAGE,
    PAGE_BYTES,
    bytes_to_gib,
    cycles_to_seconds,
    gbps,
    seconds_to_cycles,
)


class TestUnits:
    def test_architectural_constants(self):
        assert PAGE_BYTES == 4096
        assert CACHE_LINE_BYTES == 64
        assert LINES_PER_PAGE * CACHE_LINE_BYTES == PAGE_BYTES

    @given(st.integers(min_value=0, max_value=10**12),
           st.sampled_from([1e9, 2e9, 3.6e9]))
    def test_cycles_seconds_round_trip(self, cycles, freq):
        assert seconds_to_cycles(cycles_to_seconds(cycles, freq),
                                 freq) == cycles

    @given(st.floats(min_value=0.0, max_value=10.0,
                     allow_nan=False, allow_infinity=False),
           st.sampled_from([1e9, 2e9]))
    def test_seconds_to_cycles_monotone(self, seconds, freq):
        assert seconds_to_cycles(seconds, freq) <= \
            seconds_to_cycles(seconds + 1.0, freq)

    @given(st.integers(min_value=0, max_value=1 << 50))
    def test_bytes_to_gib_round_trip(self, n_bytes):
        assert bytes_to_gib(n_bytes) * GIB == pytest.approx(n_bytes)

    @given(st.integers(min_value=0, max_value=1 << 40),
           st.floats(min_value=1e-6, max_value=1e3,
                     allow_nan=False, allow_infinity=False))
    def test_gbps_scales_linearly_in_bytes(self, n_bytes, seconds):
        assert gbps(2 * n_bytes, seconds) == \
            pytest.approx(2 * gbps(n_bytes, seconds))

    @given(st.integers(min_value=0, max_value=1 << 40))
    def test_gbps_zero_interval_is_zero(self, n_bytes):
        assert gbps(n_bytes, 0.0) == 0.0
        assert gbps(n_bytes, -1.0) == 0.0
