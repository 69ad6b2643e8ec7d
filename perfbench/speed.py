"""Host CPU time in reference-host units.

On a shared host the same work can take twice the CPU time from one
ten-second stretch to the next (co-tenants contend for caches and
memory bandwidth).  Longer runs do not average that away, so the
benchmark rescales every timing by the host's current speed, measured
by a fixed calibration kernel that runs between ops, about every 40 ms
of measured time:

    reported_ns = measured_ns * REFERENCE_KERNEL_NS / kernel_ns

where ``kernel_ns`` is the median of the kernel timings taken within
``SMOOTHING_NS`` of process CPU time either side of the op (one kernel
timing is too noisy on its own).  The kernel mixes the three kinds of
work the program does, in about equal parts: a pointer chase with dict
lookups over 200k objects (memory latency), small-dict and list churn
(interpreter), and byte-array numpy ops (vectorised code).  Over three
runs of one seed's window on the tuning host, rescaling cut the spread
of the window's CPU time from 20-35% to 2-3%.  The kernel is the
benchmark's own code, so no change to the program can move it.

Cyclic garbage collection is timed apart from the ops: a full
collection walks the whole simulated world (~100 MB of objects) and
lands on whichever op crosses the allocation threshold, which made the
upper percentiles flip between runs.  Its CPU time still counts in the
window totals (throughput), not in any op's latency.
"""

import bisect
import gc
import os
import random
import statistics
import time

import numpy as np

__all__ = ["NullMeter", "SpeedMeter"]

#: Kernel time on the tuning host (see ``README.md``); only fixes the
#: scale of the reported numbers.
REFERENCE_KERNEL_NS = 5_000_000
#: Measured CPU time between two kernel runs.
SEGMENT_NS = 40_000_000
#: Half-width of the window of kernel timings an op is rescaled by.
SMOOTHING_NS = 2_000_000_000
_NODES = 200_000
_CHASE_STEPS = 1_500
_CHURN_STEPS = 9_000
_ARRAY_ROWS = 256


def _current_rss_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class _Node:
    __slots__ = ("key", "value", "next")


class SpeedMeter:
    """Collects CPU times of ops and set-ups, rescaled to reference speed.

    Call :meth:`record` after each op and :meth:`time_call` for each
    set-up, then :meth:`close`; the rescaled times are then in
    ``samples`` by kind ("scan", "read", "gc", "setup").
    """

    def __init__(self):
        rss_before = _current_rss_bytes()
        rng = random.Random(20171014)
        nodes = [_Node() for _ in range(_NODES)]
        order = list(range(_NODES))
        rng.shuffle(order)
        for i, node in enumerate(nodes):
            node.key = i
            node.value = 3 * i
            node.next = nodes[order[i]]
        self._head = nodes[0]
        self._table = {i: nodes[i] for i in range(_NODES)}
        self._rows = np.random.default_rng(20171014).integers(
            0, 256, size=(64, 4096), dtype=np.uint8
        )
        #: Resident memory the kernel's objects take (subtracted from
        #: the process's peak RSS by the benchmark).
        self.kernel_rss_bytes = max(0, _current_rss_bytes() - rss_before)
        #: Wall and CPU time spent in the kernel, to subtract from
        #: windows the caller times itself.
        self.kernel_wall_ns = 0
        self.kernel_cpu_ns = 0
        for _ in range(3):
            self._kernel()
        self._items = []  # (kind, measured ns, CPU-clock midpoint)
        self._kernels = []  # (CPU-clock midpoint, kernel ns, wall midpoint)
        self._factors = None  # per kernel sample, after close()
        self._since_kernel = 0
        self.raw_ns = 0  # ops' CPU time before rescaling
        self.samples = None
        self._gc_ns = 0  # collector CPU time so far
        self._gc_seen = 0  # ... of which already charged
        self._gc_start = 0
        gc.callbacks.append(self._on_gc)
        self._sample_kernel()

    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_start = time.process_time_ns()
        else:
            self._gc_ns += time.process_time_ns() - self._gc_start

    def _kernel(self):
        node = self._head
        table = self._table
        acc = 0
        for _ in range(_CHASE_STEPS):
            node = node.next
            acc = table[(acc + node.value) % _NODES].key
        counts = {}
        window = []
        for i in range(_CHURN_STEPS):
            key = i & 255
            counts[key] = counts.get(key, 0) + i
            window.append(key)
            if len(window) > 64:
                acc += window.pop(0)
        rows = self._rows
        for r in range(_ARRAY_ROWS):
            acc += int((rows[r % 64] ^ rows[(r + 1) % 64]).sum())
        return acc

    def _sample_kernel(self):
        wall = time.perf_counter_ns()
        start = time.process_time_ns()
        self._kernel()
        elapsed = time.process_time_ns() - start
        wall_elapsed = time.perf_counter_ns() - wall
        self.kernel_wall_ns += wall_elapsed
        self.kernel_cpu_ns += elapsed
        self._kernels.append(
            (start + elapsed // 2, elapsed, wall + wall_elapsed // 2)
        )
        self._since_kernel = 0

    def record(self, kind, start_ns, end_ns):
        """One op of ``kind`` ("scan" or "read") ran on the process CPU
        clock from ``start_ns`` to ``end_ns``.

        Collector time since the previous op is moved out of the op.
        """
        raw = end_ns - start_ns
        middle = start_ns + raw // 2
        collected = min(self._gc_ns - self._gc_seen, raw)
        self._gc_seen = self._gc_ns
        if collected:
            self._items.append(("gc", collected, middle))
        self._items.append((kind, raw - collected, middle))
        self.raw_ns += raw
        self._since_kernel += raw
        if self._since_kernel >= SEGMENT_NS:
            self._sample_kernel()

    def time_call(self, fn, *args):
        """``fn(*args)``, timed as a set-up; collector time stays in it."""
        self._sample_kernel()
        start = time.process_time_ns()
        result = fn(*args)
        raw = time.process_time_ns() - start
        self._gc_seen = self._gc_ns
        self._items.append(("setup", raw, start + raw // 2))
        self._sample_kernel()
        return result

    def close(self):
        """Stop timing; rescale every item into ``samples``."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._sample_kernel()
        stamps = [t for t, _, _ in self._kernels]
        timings = [k for _, k, _ in self._kernels]
        factors = []
        for t in stamps:
            lo = bisect.bisect_left(stamps, t - SMOOTHING_NS)
            hi = bisect.bisect_right(stamps, t + SMOOTHING_NS)
            factors.append(
                REFERENCE_KERNEL_NS / statistics.median(timings[lo:hi])
            )
        self.samples = {"scan": [], "read": [], "gc": [], "setup": []}
        for kind, raw, middle in self._items:
            nearest = bisect.bisect_left(stamps, middle)
            if nearest == len(stamps) or (
                nearest and middle - stamps[nearest - 1]
                < stamps[nearest] - middle
            ):
                nearest -= 1
            self.samples[kind].append(raw * factors[nearest])
        self._items = []
        self._factors = np.array(factors)
        return self

    def factors_at_wall(self, wall_ns):
        """Host-speed factors at ``perf_counter_ns`` times ``wall_ns``
        (an array; after close): each time gets the factor of the
        kernel sample nearest to it on the wall clock."""
        stamps = np.array([w for _, _, w in self._kernels])
        hi = np.clip(np.searchsorted(stamps, wall_ns), 1, len(stamps) - 1)
        lo = hi - 1
        nearest = np.where(
            wall_ns - stamps[lo] < stamps[hi] - wall_ns, lo, hi
        )
        return self._factors[nearest]

    def total_ns(self):
        """Rescaled CPU time of every op and collection (after close)."""
        return sum(
            sum(self.samples[kind]) for kind in ("scan", "read", "gc")
        )

    def speed(self):
        """Median kernel time over the reference (1.0 = reference speed)."""
        return REFERENCE_KERNEL_NS / statistics.median(
            k for _, k, _ in self._kernels
        )


class NullMeter:
    """A meter that keeps nothing, for replays whose cost is not reported."""

    def record(self, kind, start_ns, end_ns):
        pass
