"""The memory controller's ECC engine (Figure 3).

Writes pass through the encoder (data -> check bytes stored in the spare
chip); reads pass through the decoder (data + stored code -> corrected
data).  PageForge "snatches" codes from this engine: lines serviced from
DRAM carry their stored code, while lines serviced from the on-chip network
are re-encoded on the fly by the same circuitry (Section 3.3.2).
"""

from dataclasses import dataclass, field

import numpy as np

from repro.ecc.hamming import (
    DecodeStatus,
    decode_word,
    encode_line,
    encode_words,
)


@dataclass
class ECCEngineStats:
    """Operation counts for one ECC engine."""

    lines_encoded: int = 0
    lines_decoded: int = 0
    words_corrected: int = 0
    uncorrectable_errors: int = 0

    def reset(self):
        self.lines_encoded = 0
        self.lines_decoded = 0
        self.words_corrected = 0
        self.uncorrectable_errors = 0


#: Lines whose codes one engine memoizes (about 6 MB when full).
_CODE_MEMO_MAX = 1 << 15


@dataclass
class ECCEngine:
    """Encode/decode engine attached to one memory controller."""

    stats: ECCEngineStats = field(default_factory=ECCEngineStats)
    #: Line bytes -> their 8 check bytes.  The encode is a pure function
    #: of the 64 bytes, and a verified read path decodes the same lines
    #: over and over, so checking a clean line costs one dict lookup
    #: instead of a SECDED encode.
    _codes: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def encode_line(self, line_bytes):
        """Encode one 64 B line; returns its 8 check bytes."""
        self.stats.lines_encoded += 1
        return encode_line(line_bytes)

    def _line_code(self, line):
        """``encode_words`` of one 64 B line, as ``bytes``, memoized."""
        key = line.tobytes()
        code = self._codes.get(key)
        if code is None:
            code = encode_words(line.view(np.uint64)).tobytes()
            if len(self._codes) >= _CODE_MEMO_MAX:
                self._codes.clear()
            self._codes[key] = code
        return code

    def decode_line(self, line_bytes, stored_code):
        """Decode a line read from DRAM against its stored 8 B code.

        Returns ``(corrected_line_bytes, ok)`` where ``ok`` is False only
        for detected-uncorrectable errors.  Single-bit errors are repaired
        in the returned copy.
        """
        self.stats.lines_decoded += 1
        line = np.array(line_bytes, dtype=np.uint8, copy=True)
        words = line.view(np.uint64)
        stored = np.asarray(stored_code, dtype=np.uint8)
        expected = self._line_code(line)
        if expected == stored.tobytes():
            return line, True  # the common case: nothing to correct
        expected = np.frombuffer(expected, dtype=np.uint8)
        mismatched = np.nonzero(expected != stored)[0]
        ok = True
        for idx in mismatched:
            outcome = decode_word(int(words[idx]), int(stored[idx]))
            if outcome.status in (
                DecodeStatus.CORRECTED,
                DecodeStatus.PARITY_BIT_ERROR,
            ):
                words[idx] = np.uint64(outcome.word)
                self.stats.words_corrected += 1
            elif outcome.status is DecodeStatus.UNCORRECTABLE:
                self.stats.uncorrectable_errors += 1
                ok = False
        return line, ok

