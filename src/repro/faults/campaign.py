"""Seeded chaos campaigns over the merging stack.

``run_fault_campaign`` builds the usual VM fleet, attaches a
:class:`FaultInjector` to the PageForge controller/engine, and runs merge
intervals while checking two invariants after every one of them:

* **content**: every guest page still holds the bytes it held when the
  campaign began (no write churn runs here, so *any* change means a
  merge corrupted memory — the property the paper's lockstep-verify
  design argues can never happen);
* **bookkeeping**: ``Hypervisor.verify_consistency`` (rmap, refcounts,
  page tables agree), which VM-destruction churn would violate first.

The software-KSM and Baseline modes run under the same plan: KSM reads
memory through the CPU, not the faulty controller, so it is immune to the
line-fault classes by construction — the comparison the degradation
governor's fallback rests on.

Everything is keyed by seed; ``CampaignResult.fingerprint`` digests the
whole observable trajectory so reproducibility is one string compare.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List

from repro.faults.plan import FaultPlan
from repro.sim.host import FunctionalHost, resolve_app


@dataclass
class CampaignResult:
    """One (app, mode, plan) chaos campaign."""

    app_name: str
    mode: str
    seed: int
    intervals_run: int
    guest_pages: int
    footprint_pages: int
    merges: int
    merge_rollbacks: int
    content_violations: int
    consistency_violations: int
    injected: Dict[str, int]
    walk_failures: int = 0
    candidates_poisoned: int = 0
    batch_retries: int = 0
    batches_abandoned: int = 0
    expired_reads: int = 0
    corrected_words: int = 0
    backend_transitions: List = field(default_factory=list)
    final_backend: str = ""
    intervals_degraded: int = 0
    fingerprint: str = ""
    # Provenance echo: the exact plan and campaign scale that produced
    # this result, so exported rows are replayable without the caller.
    plan: Dict = field(default_factory=dict)
    config: Dict = field(default_factory=dict)

    @property
    def savings_frac(self):
        """Fraction of the guest footprint saved by merging (Fig. 7
        metric, robust to VM-destruction churn)."""
        if self.guest_pages == 0:
            return 0.0
        return 1.0 - self.footprint_pages / self.guest_pages

    @property
    def clean(self):
        """True iff no invariant was ever violated."""
        return (
            self.content_violations == 0
            and self.consistency_violations == 0
        )


def _content_snapshot(hypervisor):
    """Digest of every mapped guest page, keyed (vm_id, gpn)."""
    snapshot = {}
    for vm_id, vm in hypervisor.vms.items():
        for mapping in vm.mappings():
            frame = hypervisor.memory.frame(mapping.ppn)
            snapshot[(vm_id, mapping.gpn)] = hashlib.sha256(
                frame.data.tobytes()
            ).digest()
    return snapshot


def _content_violations(hypervisor, expected):
    """Pages whose bytes differ from their snapshot (0 = invariant holds)."""
    violations = 0
    for (vm_id, gpn), digest in expected.items():
        vm = hypervisor.vms.get(vm_id)
        if vm is None or not vm.is_mapped(gpn):
            continue  # destroyed by churn; nothing left to check
        frame = hypervisor.memory.frame(vm.mapping(gpn).ppn)
        if hashlib.sha256(frame.data.tobytes()).digest() != digest:
            violations += 1
    return violations


def run_fault_campaign(app="moses", mode="pageforge", plan=None, seed=0,
                       pages_per_vm=200, n_vms=4, intervals=16,
                       pages_per_interval=None, use_governor=True):
    """Run one seeded chaos campaign; returns a :class:`CampaignResult`.

    ``mode`` is "baseline" (no merging) or a registered merge backend
    ("ksm" software, "pageforge" hardware, ...).  The host is armed with
    the plan, so PageForge compares with ``line_sampling=1`` (every line
    takes the real, injectable fetch path) and ``verify_ecc=True`` (the
    SECDED decode actually runs).
    """
    app = resolve_app(app)
    plan = plan or FaultPlan(seed=seed)
    host = FunctionalHost(
        f"faultcampaign/{app.name}/{mode}",
        backend=None if mode == "baseline" else mode, app=app,
        n_vms=n_vms, pages_per_vm=pages_per_vm, seed=seed,
        pages_to_scan=pages_per_interval or 2 * pages_per_vm * n_vms,
        fault_plan=plan,
    )
    if not use_governor:
        host.governor = None
    hypervisor = host.hypervisor
    merger = host.merger
    driver = host.bundle.driver if host.bundle is not None else None
    injector = host.injector
    governor = host.governor

    expected = _content_snapshot(hypervisor)
    content_violations = 0
    consistency_violations = 0
    footprints = []
    try:
        for _interval in range(intervals):
            destroyed = host.armed_interval()
            if destroyed is not None:
                expected = {
                    key: digest for key, digest in expected.items()
                    if key[0] != destroyed
                }
            content_violations += _content_violations(hypervisor, expected)
            try:
                hypervisor.verify_consistency()
            except AssertionError:
                consistency_violations += 1
            footprints.append(hypervisor.footprint_pages())
    finally:
        injector.detach()

    from dataclasses import asdict as _asdict

    result = CampaignResult(
        app_name=app.name,
        mode=mode,
        seed=seed,
        plan=_asdict(plan),
        config={
            "pages_per_vm": pages_per_vm,
            "n_vms": n_vms,
            "intervals": intervals,
            "pages_per_interval": host.config.pages_to_scan,
            "use_governor": use_governor,
        },
        intervals_run=intervals,
        guest_pages=hypervisor.guest_pages(),
        footprint_pages=hypervisor.footprint_pages(),
        merges=merger.stats.merges if merger is not None else 0,
        merge_rollbacks=hypervisor.stats.merge_rollbacks,
        content_violations=content_violations,
        consistency_violations=consistency_violations,
        injected=injector.stats.snapshot(),
    )
    if merger is not None and hasattr(merger.stats, "walk_failures"):
        # KSM-family daemons count walk failures; ESX-style buckets do
        # not walk a tree.
        result.walk_failures = merger.stats.walk_failures
        result.candidates_poisoned = merger.stats.candidates_poisoned
    if driver is not None:
        result.batch_retries = driver.fault_stats.batch_retries
        result.batches_abandoned = driver.fault_stats.batches_abandoned
        controller = driver.engine.controller
        result.expired_reads = controller.stats.expired_reads
        result.corrected_words = controller.ecc.stats.words_corrected
        result.final_backend = driver.backend
    if governor is not None:
        result.backend_transitions = list(governor.transitions)
        result.intervals_degraded = governor.intervals_degraded

    material = repr((
        footprints, result.merges, result.merge_rollbacks,
        result.content_violations, result.consistency_violations,
        sorted(result.injected.items()), result.walk_failures,
        result.candidates_poisoned, result.batch_retries,
        result.batches_abandoned, result.backend_transitions,
    )).encode("utf-8")
    result.fingerprint = hashlib.sha256(material).hexdigest()[:16]
    return result


def run_fault_suite(app="moses", seed=0, rate=1e-3, quick=False,
                    modes=("baseline", "ksm", "pageforge")):
    """One campaign per mode under a shared uniform plan (the CLI entry).

    Returns ``{mode: CampaignResult}``.  ``quick`` shrinks the fleet for
    CI smoke runs.
    """
    if quick:
        pages_per_vm, n_vms, intervals = 60, 3, 6
    else:
        pages_per_vm, n_vms, intervals = 150, 4, 12
    plan = FaultPlan.uniform(rate, seed=seed, churn=True)
    return {
        mode: run_fault_campaign(
            app=app, mode=mode, plan=plan, seed=seed,
            pages_per_vm=pages_per_vm, n_vms=n_vms, intervals=intervals,
        )
        for mode in modes
    }
