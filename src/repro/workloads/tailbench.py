"""TailBench-like load generation and latency statistics.

Each VM runs one latency-critical application driven at a fixed QPS
(Table 3).  Queries arrive as a Poisson process and are served FIFO by
the VM's pinned core; the *sojourn* latency of a query is its total time
in the system (queueing + service), the quantity Figures 9 and 10 report.
Per the paper, per-application results are the geometric mean across the
ten VMs.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np


def geometric_mean(values):
    """Geometric mean of the positive ``values`` (0.0 when none are)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return float(np.exp(np.mean(np.log(values))))


@dataclass
class QueryRecord:
    """One completed query."""

    vm_id: int
    arrival_s: float
    start_s: float
    completion_s: float

    @property
    def sojourn_s(self):
        return self.completion_s - self.arrival_s

    @property
    def wait_s(self):
        return self.start_s - self.arrival_s

    @property
    def service_s(self):
        return self.completion_s - self.start_s


class ArrivalProcess:
    """Poisson arrivals at a fixed rate."""

    def __init__(self, qps, rng):
        if qps <= 0:
            raise ValueError("qps must be positive")
        self.qps = float(qps)
        self.rng = rng
        self._next = 0.0

    def next_arrival(self):
        self._next += float(self.rng.exponential(1.0 / self.qps))
        return self._next

    def arrivals_until(self, horizon_s):
        """All arrival times in [0, horizon)."""
        times = []
        while True:
            t = self.next_arrival()
            if t >= horizon_s:
                return times
            times.append(t)


class ServiceTimeModel:
    """Lognormal service-time *shape* around a computed mean.

    The absolute mean comes from the timing model (CPU work + measured
    memory latency); this class provides the per-query variability with
    the configured coefficient of variation, normalised to mean 1.
    """

    def __init__(self, cv, rng):
        self.cv = float(cv)
        self.rng = rng
        self._sigma2 = math.log(1.0 + self.cv ** 2)
        self._mu = -self._sigma2 / 2.0  # mean of the factor = 1

    def factor(self):
        return float(
            self.rng.lognormal(self._mu, math.sqrt(self._sigma2))
        )


class LatencyCollector:
    """Sojourn-latency statistics, reported the way the paper does."""

    def __init__(self):
        self.records: List[QueryRecord] = []

    def add(self, record):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def _sojourns(self, vm_id=None):
        return np.array([
            r.sojourn_s
            for r in self.records
            if vm_id is None or r.vm_id == vm_id
        ])

    def mean_sojourn_s(self, vm_id=None):
        vals = self._sojourns(vm_id)
        return float(vals.mean()) if vals.size else 0.0

    def p95_sojourn_s(self, vm_id=None):
        vals = self._sojourns(vm_id)
        return float(np.percentile(vals, 95)) if vals.size else 0.0

    def vm_ids(self):
        return sorted({r.vm_id for r in self.records})

    def geomean_across_vms(self, per_vm_fn):
        """Geometric mean of a per-VM statistic (the paper's bars)."""
        return geometric_mean(per_vm_fn(vm_id) for vm_id in self.vm_ids())

    def geomean_mean_sojourn_s(self):
        return self.geomean_across_vms(self.mean_sojourn_s)

    def geomean_p95_sojourn_s(self):
        return self.geomean_across_vms(self.p95_sojourn_s)

    def drop_warmup(self, warmup_s):
        """Discard queries that arrived during warm-up."""
        self.records = [r for r in self.records if r.arrival_s >= warmup_s]
