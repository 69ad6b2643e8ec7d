"""The reduce step: shard results -> one deterministic FleetResult.

Reduction is defined entirely over the *sorted host order*, never over
arrival order: workers finish in whatever order the OS schedules them,
so every fold below first sorts by ``host_id`` and then aggregates in
one fixed sequence.  Floating-point addition is not associative — a
reduce that folded in completion order would produce different low bits
on every run, which is exactly the nondeterminism the fingerprint
exists to catch.

Aggregation semantics, by family:

* **additive counters** (queries, pages, merges, per-metric snapshot
  values) — summed;
* **latency** — query-weighted mean of per-host means; p95 is reported
  both as the fleet max (worst host) and the query-weighted mean (the
  typical host, weighted by traffic);
* **bandwidth** — summed peaks (aggregate demand if every host peaked
  together) and the single worst host;
* **cross-host dedup** — digest histograms are unioned; the number of
  distinct contents is the footprint a fleet-wide merger could reach,
  so ``footprint - distinct`` frames are savings lost to host
  boundaries.
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.recovery.serialize import jsonify

__all__ = [
    "FleetResult",
    "reduce_shards",
]


@dataclass
class FleetResult:
    """The fleet-wide aggregate of one sharded run."""

    seed: int
    n_hosts: int
    n_vms: int
    # Additive counters.
    queries: int = 0
    guest_pages: int = 0
    footprint_pages: int = 0
    merges: int = 0
    cow_breaks: int = 0
    # Latency.
    mean_sojourn_s: float = 0.0
    p95_sojourn_s_max: float = 0.0
    p95_sojourn_s_wmean: float = 0.0
    # Host-level shares / bandwidth.
    kernel_share_avg: float = 0.0
    kernel_share_max: float = 0.0
    bandwidth_sum_gbps: float = 0.0
    bandwidth_max_gbps: float = 0.0
    # Cross-host dedup opportunity.  ``intra_host_duplicate_frames`` is
    # residue per-host merging has not (or cannot — churn) collapsed;
    # ``cross_host_duplicate_frames`` counts frames that are duplicates
    # *only because hosts are separate*: the sum over hosts of distinct
    # contents, minus the fleet-wide distinct count.
    distinct_contents: int = 0
    intra_host_duplicate_frames: int = 0
    cross_host_duplicate_frames: int = 0
    # Per-backend breakdown (heterogeneous fleets).
    by_backend: Dict[str, Dict[str, object]] = field(default_factory=dict)
    # Summed component-metrics snapshot across hosts.
    metrics: Dict[str, object] = field(default_factory=dict)
    # One row per host, sorted by host_id.
    per_host: List[Dict[str, object]] = field(default_factory=list)
    # Per-host worker retry counts from the driver.  Deliberately NOT
    # in :meth:`to_dict`: a shard is a pure function of its task, so a
    # re-run is equivalent to the run — how many times the OS killed a
    # worker is operational noise and must not perturb the fingerprint.
    shard_retries: Dict[int, int] = field(default_factory=dict)

    @property
    def total_shard_retries(self):
        return sum(self.shard_retries.values())

    @property
    def savings_frac(self):
        """Fleet-wide achieved savings (per-host merging only)."""
        if not self.guest_pages:
            return 0.0
        return 1.0 - self.footprint_pages / self.guest_pages

    @property
    def cross_host_dedup_frac(self):
        """Fraction of the live footprint that is cross-host duplicate."""
        if not self.footprint_pages:
            return 0.0
        return self.cross_host_duplicate_frames / self.footprint_pages

    @property
    def potential_savings_frac(self):
        """Savings a fleet-wide (boundary-free) merger could reach."""
        if not self.guest_pages:
            return 0.0
        return 1.0 - self.distinct_contents / self.guest_pages

    def to_dict(self):
        data = {
            "seed": self.seed,
            "n_hosts": self.n_hosts,
            "n_vms": self.n_vms,
            "queries": self.queries,
            "guest_pages": self.guest_pages,
            "footprint_pages": self.footprint_pages,
            "merges": self.merges,
            "cow_breaks": self.cow_breaks,
            "savings_frac": self.savings_frac,
            "mean_sojourn_s": self.mean_sojourn_s,
            "p95_sojourn_s_max": self.p95_sojourn_s_max,
            "p95_sojourn_s_wmean": self.p95_sojourn_s_wmean,
            "kernel_share_avg": self.kernel_share_avg,
            "kernel_share_max": self.kernel_share_max,
            "bandwidth_sum_gbps": self.bandwidth_sum_gbps,
            "bandwidth_max_gbps": self.bandwidth_max_gbps,
            "distinct_contents": self.distinct_contents,
            "intra_host_duplicate_frames": self.intra_host_duplicate_frames,
            "cross_host_duplicate_frames": self.cross_host_duplicate_frames,
            "cross_host_dedup_frac": self.cross_host_dedup_frac,
            "potential_savings_frac": self.potential_savings_frac,
            "by_backend": self.by_backend,
            "metrics": self.metrics,
            "per_host": self.per_host,
        }
        return jsonify(data)

    @property
    def fingerprint(self):
        """blake2b-16 over the canonical JSON of the full result.

        Covers every aggregate *and* every per-host row, so any
        scheduling- or worker-count-dependent bit anywhere in the
        pipeline changes the fingerprint.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.blake2b(
            canonical.encode("utf-8"), digest_size=16
        ).hexdigest()


def _host_row(r):
    return {
        "host_id": r.host_id,
        "backend": r.backend,
        "app": r.app,
        "seed": r.seed,
        "scenario": r.scenario,
        "queries": r.queries,
        "mean_sojourn_s": r.mean_sojourn_s,
        "p95_sojourn_s": r.p95_sojourn_s,
        "kernel_share_avg": float(r.summary["kernel_share_avg"]),
        "kernel_share_max": float(r.summary["kernel_share_max"]),
        "l3_miss_rate": float(r.summary["l3_miss_rate"]),
        "bandwidth_peak_gbps": float(r.summary["bandwidth_peak_gbps"]),
        "guest_pages": r.guest_pages,
        "footprint_pages": r.footprint_pages,
        "merges": r.merges,
        "cow_breaks": r.cow_breaks,
        "savings_frac": r.savings_frac,
    }


def reduce_shards(spec, results):
    """Fold shard results into a :class:`FleetResult`.

    ``results`` may arrive in any order and any container; the fold
    sorts by ``host_id`` first and validates the set is exactly the
    spec's hosts — a lost or duplicated shard is an error, not a quiet
    skew in the totals.
    """
    by_id = {}
    for r in results:
        if r.host_id in by_id:
            raise ValueError(f"duplicate shard result for host {r.host_id}")
        by_id[r.host_id] = r
    expected = {h.host_id for h in spec.hosts}
    if set(by_id) != expected:
        missing = sorted(expected - set(by_id))
        extra = sorted(set(by_id) - expected)
        raise ValueError(
            f"shard results do not match the spec: missing hosts "
            f"{missing}, unexpected hosts {extra}"
        )
    ordered = [by_id[h] for h in sorted(by_id)]

    out = FleetResult(
        seed=spec.seed, n_hosts=spec.n_hosts, n_vms=spec.n_vms,
    )
    digest_totals = {}
    distinct_per_host_sum = 0
    sojourn_weighted = 0.0
    p95_weighted = 0.0
    kernel_avg_sum = 0.0
    for r in ordered:
        out.queries += r.queries
        out.guest_pages += r.guest_pages
        out.footprint_pages += r.footprint_pages
        out.merges += r.merges
        out.cow_breaks += r.cow_breaks
        sojourn_weighted += r.queries * r.mean_sojourn_s
        p95_weighted += r.queries * r.p95_sojourn_s
        kernel_avg_sum += float(r.summary["kernel_share_avg"])
        out.kernel_share_max = max(
            out.kernel_share_max, float(r.summary["kernel_share_max"])
        )
        out.p95_sojourn_s_max = max(out.p95_sojourn_s_max, r.p95_sojourn_s)
        peak = float(r.summary["bandwidth_peak_gbps"])
        out.bandwidth_sum_gbps += peak
        out.bandwidth_max_gbps = max(out.bandwidth_max_gbps, peak)
        distinct_per_host_sum += len(r.digest_counts)
        for digest, count in sorted(r.digest_counts.items()):
            digest_totals[digest] = digest_totals.get(digest, 0) + count
        for key in sorted(r.metrics):
            value = r.metrics[key]
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue  # strings and flags do not sum
            out.metrics[key] = out.metrics.get(key, 0) + value
        bucket = out.by_backend.setdefault(r.backend, {
            "hosts": 0, "queries": 0, "guest_pages": 0,
            "footprint_pages": 0, "merges": 0,
        })
        bucket["hosts"] += 1
        bucket["queries"] += r.queries
        bucket["guest_pages"] += r.guest_pages
        bucket["footprint_pages"] += r.footprint_pages
        bucket["merges"] += r.merges
        out.per_host.append(_host_row(r))

    if out.queries:
        out.mean_sojourn_s = sojourn_weighted / out.queries
        out.p95_sojourn_s_wmean = p95_weighted / out.queries
    if ordered:
        out.kernel_share_avg = kernel_avg_sum / len(ordered)
    out.distinct_contents = len(digest_totals)
    out.intra_host_duplicate_frames = (
        out.footprint_pages - distinct_per_host_sum
    )
    out.cross_host_duplicate_frames = (
        distinct_per_host_sum - out.distinct_contents
    )
    for backend, bucket in out.by_backend.items():
        guest = bucket["guest_pages"]
        bucket["savings_frac"] = (
            1.0 - bucket["footprint_pages"] / guest if guest else 0.0
        )
    return out
