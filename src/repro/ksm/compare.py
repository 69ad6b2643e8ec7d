"""Byte-wise page comparison with cost accounting.

KSM orders tree nodes by ``memcmp`` of page contents (Section 2.1): the
walk moves left when the candidate is smaller and right when larger.  The
comparison cost is dominated by how far into the pages the first
difference occurs — identical pages cost a full 4 KB scan, pages that
diverge in the first line cost almost nothing.  ``compare_pages`` returns
both the sign and the number of bytes effectively touched so the timing
model can charge cycles and cache traffic accurately.
"""

import numpy as np


def _as_bytes(page):
    """Immutable ``bytes`` view of a page (arrays, buffers, or bytes)."""
    if type(page) is bytes:
        return page
    if isinstance(page, (bytearray, memoryview)):
        return bytes(page)
    return np.ascontiguousarray(np.asarray(page, dtype=np.uint8)).tobytes()


def _first_mismatch(a, b):
    """Index of the first differing byte of two unequal equal-length
    ``bytes`` objects.

    The first 64 B are compared first: on a churned host half the
    differences sit there.  Otherwise a binary search over the whole
    buffers narrows the difference to at most 128 B; its halving points
    stay on power-of-two offsets, where pages built from aligned chunks
    tend to diverge.  The XOR of the remaining ranges, read as big-endian
    integers, names the byte: its highest set bit lies in the first
    differing byte.  Each probe is a C-level memcmp.
    """
    n = len(a)
    lo, hi = 0, 64 if n > 64 else n
    if a[:hi] == b[:hi]:
        hi = n
    while hi - lo > 128:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    diff = (int.from_bytes(a[lo:hi], "big")
            ^ int.from_bytes(b[lo:hi], "big"))
    if not diff:
        raise AssertionError("no mismatch in unequal buffers")
    return hi - 1 - (diff.bit_length() - 1) // 8


#: Memo over compared content pairs.  compare_pages is a pure function of
#: the two byte strings, and steady-state scanning walks each candidate
#: past largely the same tree nodes every pass, so repeat pairs dominate.
#: Keys are the ``bytes`` objects themselves: frames hand out a stable
#: ``content_bytes`` object until written, so a hit costs two cached
#: string hashes and two pointer-equality checks.
_PAIR_MEMO = {}
_PAIR_MEMO_MAX = 1 << 18


def compare_pages(a, b):
    """memcmp-order two pages.

    Returns ``(sign, bytes_touched)``: ``sign`` is -1 / 0 / +1 as ``a`` is
    smaller / equal / larger in lexicographic byte order, and
    ``bytes_touched`` is how many bytes a serial memcmp would have read
    from *each* page before deciding (the full page when equal).

    Bit-identical to :func:`compare_pages_scalar`, but the equality test
    is one C memcmp, the first-diff search probes the first 64 B, then
    binary-searches over slice equality, and repeat pairs are memoized —
    callers that pass cached ``bytes`` (see ``PageFrame.content_bytes``)
    skip the array conversion entirely.
    """
    ab = _as_bytes(a)
    bb = _as_bytes(b)
    if len(ab) != len(bb):
        raise ValueError("pages must be the same size")
    if ab == bb:
        return 0, len(ab)
    pair = (ab, bb)
    hit = _PAIR_MEMO.get(pair)
    if hit is not None:
        return hit
    return _memoize_pair(pair)


def _memoize_pair(pair):
    """Compute, memoize, and return the ordering of an unequal pair.

    Split out of :func:`compare_pages` so the tree walk's inlined fast
    path (``ContentRBTree.walk``) can share the memo without paying a
    full ``compare_pages`` call on every hit.
    """
    ab, bb = pair
    first = _first_mismatch(ab, bb)
    sign = -1 if ab[first] < bb[first] else 1
    result = (sign, first + 1)
    if len(_PAIR_MEMO) >= _PAIR_MEMO_MAX:
        _PAIR_MEMO.clear()
    _PAIR_MEMO[pair] = result
    return result


def compare_pages_scalar(a, b):
    """The original chunked numpy comparison, kept as the reference
    implementation for the equivalence property tests and as the
    pre-vectorization baseline ``repro bench`` measures speedups against.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.size != b.size:
        raise ValueError("pages must be the same size")
    # Chunked early-exit scan: most comparisons diverge well before the
    # end of the page, so comparing 512 B at a time is much cheaper than
    # a whole-page diff.
    chunk = 512
    for start in range(0, a.size, chunk):
        sub_a = a[start : start + chunk]
        sub_b = b[start : start + chunk]
        neq = sub_a != sub_b
        if neq.any():
            first = start + int(np.argmax(neq))
            sign = -1 if a[first] < b[first] else 1
            return sign, first + 1
    return 0, a.size


def pages_identical(a, b):
    """Exhaustive equality (the final pre-merge check)."""
    ab = _as_bytes(a)
    bb = _as_bytes(b)
    if len(ab) != len(bb):
        raise ValueError("pages must be the same size")
    return ab == bb
