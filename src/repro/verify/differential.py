"""Differential merge-equivalence harness: KSM vs PageForge vs oracle.

PageForge's central correctness claim (Section 3, Figure 8) is that the
ECC-based hash key plus hardware lockstep comparison reaches the *same
merge decisions* as software KSM's jhash path.  This harness tests that
claim end to end: build byte-identical seeded VM images, run each
backend to steady state on its own copy, and grade every backend's
achieved merge set against the full-compare oracle built from a frozen
copy of the same image.

Pass criteria (:meth:`DifferentialResult.ok`):

* **zero false merges** for every backend — two pages sharing a frame
  must have held identical bytes (any violation is reported with the
  divergent pair and its first differing byte);
* PageForge's **false-negative rate** (content-equal pairs left
  unmerged) stays within ``fn_tolerance`` of the software-jhash
  baseline's — the hardware key may be more conservative, never more
  aggressive.
"""

from dataclasses import dataclass, field
from typing import Dict

from repro.sim.host import FunctionalHost, resolve_app
from repro.verify.oracle import (
    MergeEquivalenceReport,
    compare_to_oracle,
    reference_partition,
)

#: Backends the harness compares by default.
BACKENDS = ("ksm", "pageforge")


@dataclass
class DifferentialResult:
    """One seeded workload graded across backends."""

    app_name: str
    seed: int
    pages_per_vm: int
    n_vms: int
    oracle_classes: int
    oracle_pairs: int
    oracle_comparisons: int
    fn_tolerance: float
    reports: Dict[str, MergeEquivalenceReport] = field(default_factory=dict)

    @property
    def ok(self):
        if not all(r.zero_false_merges for r in self.reports.values()):
            return False
        ksm = self.reports.get("ksm")
        pf = self.reports.get("pageforge")
        if ksm is not None and pf is not None:
            return (
                pf.false_negative_rate
                <= ksm.false_negative_rate + self.fn_tolerance
            )
        return True

    def divergences(self):
        """Every false merge across backends (should be empty)."""
        out = []
        for backend in sorted(self.reports):
            out.extend(self.reports[backend].false_merges)
        return out


def run_differential(app="moses", seed=0, pages_per_vm=150, n_vms=3,
                     backends=BACKENDS, max_passes=8, fn_tolerance=0.02,
                     mergeable_only=True):
    """Run one seeded workload through every backend and the oracle."""
    app = resolve_app(app)

    def host(backend):
        # One deterministic VM fleet: identical images for every backend.
        return FunctionalHost(
            f"verify-diff/{app.name}", backend=backend, app=app,
            n_vms=n_vms, pages_per_vm=pages_per_vm, seed=seed,
        )

    frozen = host(None).hypervisor
    oracle = reference_partition(frozen, mergeable_only=mergeable_only)

    result = DifferentialResult(
        app_name=app.name, seed=seed, pages_per_vm=pages_per_vm,
        n_vms=n_vms, oracle_classes=oracle.distinct_contents,
        oracle_pairs=oracle.duplicate_pairs,
        oracle_comparisons=oracle.comparisons,
        fn_tolerance=fn_tolerance,
    )
    for backend in backends:
        merged = host(backend)
        merged.merger.run_to_steady_state(max_passes=max_passes)
        result.reports[backend] = compare_to_oracle(
            merged.hypervisor, oracle, frozen_hypervisor=frozen,
            backend=backend, mergeable_only=mergeable_only,
        )
    return result


def run_differential_suite(app="moses", seeds=(0, 1, 2, 3, 4),
                           pages_per_vm=150, n_vms=3, **kwargs):
    """The acceptance harness: one differential run per seed."""
    return [
        run_differential(app=app, seed=seed, pages_per_vm=pages_per_vm,
                         n_vms=n_vms, **kwargs)
        for seed in seeds
    ]
