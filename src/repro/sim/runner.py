"""Experiment runners: one function per evaluation axis.

* ``run_memory_savings``   — Figure 7 (functional, no timing needed);
* ``run_hash_key_study``   — Figure 8 (jhash vs ECC keys on live pages);
* ``run_latency_experiment`` — Figures 9/10/11 + Table 4 (timed system).
"""

import hashlib
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.core.hashkey import ecc_hash_key
from repro.ksm.jhash import page_checksum
from repro.sim.host import FunctionalHost, resolve_app
from repro.sim.system import ServerSystem

# --------------------------------------------------------------------------
# Figure 7: memory savings
# --------------------------------------------------------------------------

@dataclass
class MemorySavingsResult:
    """Pages allocated with and without merging, by category (Fig. 7)."""

    app_name: str
    pages_before: int
    pages_after: int
    before_by_category: Dict[str, int]
    after_by_category: Dict[str, int]
    merges: int
    engine: str  # "ksm" or "pageforge"

    @property
    def savings_frac(self):
        if self.pages_before == 0:
            return 0.0
        return 1.0 - self.pages_after / self.pages_before

    def normalized_after(self):
        """Per-category page counts normalised to the unmerged total."""
        total = float(self.pages_before)
        return {k: v / total for k, v in self.after_by_category.items()}


def run_memory_savings(app, pages_per_vm=2000, n_vms=10, seed=2017,
                       engine="ksm", max_passes=8, churn=True,
                       checkpoint_every=0, checkpoint_dir=None,
                       resume=False):
    """Steady-state memory-savings run for one application (Fig. 7).

    ``engine`` selects the software daemon or the PageForge driver; the
    paper shows both reach identical savings, which this run verifies.
    With ``churn=True`` (the realistic steady state) a write churner
    keeps rewriting the frequently-written population between scan
    intervals, so those pages never stabilise — without it they are
    duplicates like any others and merge, overstating the savings.

    With ``checkpoint_dir`` set and ``checkpoint_every > 0``, the full
    run state (hypervisor, merger, churner RNG, loop counters) is
    snapshotted every N scan ticks; ``resume=True`` continues from the
    newest valid checkpoint and produces a bit-identical result to the
    uninterrupted run.
    """
    app = resolve_app(app)
    store = None
    state = None
    if checkpoint_dir is not None:
        from repro.recovery.snapshot import CheckpointStore

        store = CheckpointStore(checkpoint_dir)
        latest = store.latest() if resume else None
        if latest is not None:
            state, _header = latest

    # Registry dispatch: an unknown engine raises ValueError naming the
    # registered backends; "baseline" raises because it has no merging
    # stack to run.
    host = FunctionalHost(
        f"fig7/{app.name}", backend=engine, app=app, n_vms=n_vms,
        pages_per_vm=pages_per_vm, seed=seed, churn=churn, state=state,
    )
    hypervisor = host.hypervisor
    merger = host.merger

    if state is None:
        before = hypervisor.footprint_pages()
        before_by_cat = hypervisor.footprint_by_category()
        start_tick = 0
        last_footprint = None
        stable = 0
        passes_before = merger.stats.passes_completed
    else:
        before = state["before"]
        before_by_cat = state["before_by_cat"]
        start_tick = state["tick"]
        last_footprint = state["last_footprint"]
        stable = state["stable"]
        passes_before = state["passes_before"]

    def _checkpoint(tick):
        snap = {
            "tick": tick,
            "passes_before": passes_before,
            "last_footprint": last_footprint,
            "stable": stable,
            "before": before,
            "before_by_cat": before_by_cat,
            **host.capture(),
        }
        store.save(tick, snap, meta={"experiment": "savings",
                                     "app": app.name, "engine": engine})

    for tick in range(start_tick, max_passes * 40):
        interval = host.scan()
        done = False
        if interval.pages_scanned == 0 and interval.passes_completed == 0:
            done = True
        elif interval.passes_completed:
            passes = merger.stats.passes_completed - passes_before
            footprint = hypervisor.footprint_pages()
            if (
                last_footprint is not None
                and abs(footprint - last_footprint) <= max(2, footprint // 200)
            ):
                stable += 1
            else:
                stable = 0
            last_footprint = footprint
            if stable >= 2 and passes >= 3:
                done = True
            elif passes >= max_passes:
                done = True
        if (
            store is not None and checkpoint_every
            and (tick + 1) % checkpoint_every == 0 and not done
        ):
            _checkpoint(tick + 1)
        if done:
            break

    return MemorySavingsResult(
        app_name=app.name,
        pages_before=before,
        pages_after=hypervisor.footprint_pages(),
        before_by_category=before_by_cat,
        after_by_category=hypervisor.footprint_by_category(),
        merges=merger.stats.merges,
        engine=engine,
    )


# --------------------------------------------------------------------------
# Figure 8: hash-key comparison outcomes
# --------------------------------------------------------------------------

@dataclass
class HashKeyStudyResult:
    """Outcomes of the per-pass hash-key stability check (Fig. 8)."""

    app_name: str
    comparisons: int
    jhash_matches: int
    jhash_mismatches: int
    ecc_matches: int
    ecc_mismatches: int
    # Ground truth: among key *matches*, how many pages had actually
    # changed (false positives).
    jhash_false_positives: int
    ecc_false_positives: int

    @property
    def jhash_match_frac(self):
        return self.jhash_matches / self.comparisons if self.comparisons else 0.0

    @property
    def ecc_match_frac(self):
        return self.ecc_matches / self.comparisons if self.comparisons else 0.0

    @property
    def extra_ecc_false_positive_frac(self):
        """ECC's additional false-positive matches, as a fraction of all
        comparisons (the paper reports 3.7% on average)."""
        if not self.comparisons:
            return 0.0
        return (
            self.ecc_false_positives - self.jhash_false_positives
        ) / self.comparisons


def run_hash_key_study(app, pages_per_vm=600, n_vms=4, n_passes=6,
                       seed=2017, churn_fraction=1.0,
                       ecc_offsets=(0, 16, 32, 48)):
    """Replay KSM's hash-stability protocol with both key types (Fig. 8).

    Each pass re-keys every mergeable page with jhash2-over-1KB and with
    the ECC key, comparing against the previous pass's keys.  Between
    passes a churner rewrites part of the churn population at random
    offsets, so some pages change in ways one key sees and the other
    misses — the source of false-positive matches.
    """
    app = resolve_app(app)
    host = FunctionalHost(
        f"fig8/{app.name}", backend=None, app=app, n_vms=n_vms,
        pages_per_vm=pages_per_vm, seed=seed,
    )
    hypervisor = host.hypervisor
    images = host.images
    churner = host.start_churn(images.churn_pages, churn_fraction)

    prev_jhash = {}
    prev_ecc = {}
    prev_content = {}
    result = HashKeyStudyResult(
        app_name=app.name, comparisons=0,
        jhash_matches=0, jhash_mismatches=0,
        ecc_matches=0, ecc_mismatches=0,
        jhash_false_positives=0, ecc_false_positives=0,
    )

    for _pass in range(n_passes):
        for vm in images.vms:
            for mapping in vm.mergeable_mappings():
                if mapping.cow:
                    continue
                key = (vm.vm_id, mapping.gpn)
                frame = hypervisor.memory.frame(mapping.ppn)
                jh = page_checksum(frame.data)
                ek = ecc_hash_key(frame.data, line_offsets=ecc_offsets)
                # Ground-truth change detector.  Must be process-stable:
                # builtin hash() on bytes is salted by PYTHONHASHSEED
                # and would make the Fig. 8 numbers drift across runs.
                digest = hashlib.blake2b(
                    frame.data.tobytes(), digest_size=8
                ).digest()
                if key in prev_jhash:
                    result.comparisons += 1
                    changed = prev_content[key] != digest
                    if jh == prev_jhash[key]:
                        result.jhash_matches += 1
                        if changed:
                            result.jhash_false_positives += 1
                    else:
                        result.jhash_mismatches += 1
                    if ek == prev_ecc[key]:
                        result.ecc_matches += 1
                        if changed:
                            result.ecc_false_positives += 1
                    else:
                        result.ecc_mismatches += 1
                prev_jhash[key] = jh
                prev_ecc[key] = ek
                prev_content[key] = digest
        churner.tick()
    return result


# --------------------------------------------------------------------------
# Figures 9/10/11 + Table 4: the timed system
# --------------------------------------------------------------------------

@dataclass
class LatencySummary:
    """Latency results of one (app, mode) run."""

    app_name: str
    mode: str
    mean_sojourn_s: float
    p95_sojourn_s: float
    queries: int
    kernel_share_avg: float
    kernel_share_max: float
    l3_miss_rate: float
    bandwidth_peak_gbps: float
    bandwidth_breakdown: Dict[str, float]
    ksm_compare_share: float = 0.0
    ksm_hash_share: float = 0.0
    pf_mean_table_cycles: float = 0.0
    pf_std_table_cycles: float = 0.0
    footprint_pages: int = 0


def latency_summary(system):
    """The LatencySummary of a finished :class:`ServerSystem` run."""
    collector = system.collector
    shares = system.kernel_shares()
    peak, breakdown, _start = system.bandwidth_peak()
    summary = LatencySummary(
        app_name=system.app.name,
        mode=system.mode,
        mean_sojourn_s=collector.geomean_mean_sojourn_s(),
        p95_sojourn_s=collector.geomean_p95_sojourn_s(),
        queries=len(collector),
        kernel_share_avg=float(np.mean(shares)),
        kernel_share_max=float(np.max(shares)),
        l3_miss_rate=system.l3_miss_rate(),
        bandwidth_peak_gbps=peak,
        bandwidth_breakdown=breakdown,
        footprint_pages=system.hypervisor.footprint_pages(),
    )
    system.backend.summarize(summary)
    return summary


@dataclass
class ExperimentResult:
    """All requested modes for one application.

    ``metrics`` holds each mode's flat component-metrics snapshot
    (``MetricsRegistry.snapshot``) keyed by mode name; resumed modes
    loaded from a checkpoint have no live system, so their entry is
    absent.
    """

    app_name: str
    summaries: Dict[str, LatencySummary] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def normalized_mean(self, mode):
        base = self.summaries["baseline"].mean_sojourn_s
        return self.summaries[mode].mean_sojourn_s / base if base else 0.0

    def normalized_p95(self, mode):
        base = self.summaries["baseline"].p95_sojourn_s
        return self.summaries[mode].p95_sojourn_s / base if base else 0.0


def run_latency_experiment(app, modes=("baseline", "ksm", "pageforge"),
                           scale=None, machine=None, seed=2017,
                           checkpoint_dir=None, resume=False,
                           scenario="steady_state"):
    """Run one app under each configuration; returns ExperimentResult.

    The timed system's event queue holds closures and cannot be
    snapshotted mid-run, so checkpointing here is coarse: each completed
    (app, mode) summary is atomically published to ``checkpoint_dir``
    and, with ``resume=True``, finished modes are loaded instead of
    re-simulated.  ``scenario`` picks the registered workload; the
    default keeps checkpoint filenames (and every result bit) identical
    to the pre-scenario layout.
    """
    import json as _json
    from dataclasses import asdict as _asdict
    from pathlib import Path as _Path

    from repro.common.io import atomic_write_text

    app = resolve_app(app)
    result = ExperimentResult(app_name=app.name)
    # Non-default scenarios get their own checkpoint namespace so a
    # resumed serverless run never picks up a steady-state summary.
    ckpt_tag = "" if scenario == "steady_state" else f"-{scenario}"
    for mode in modes:
        mode_path = None
        if checkpoint_dir is not None:
            mode_path = (
                _Path(checkpoint_dir)
                / f"latency-{app.name}{ckpt_tag}-{mode}.json"
            )
            if resume and mode_path.exists():
                try:
                    data = _json.loads(mode_path.read_text())
                    result.summaries[mode] = LatencySummary(**data)
                    continue
                except (ValueError, TypeError):
                    pass  # unreadable summary: re-run the mode
        system = ServerSystem(
            app, mode=mode, machine=machine, scale=scale, seed=seed,
            scenario=scenario,
        )
        system.run()
        summary = latency_summary(system)
        result.summaries[mode] = summary
        result.metrics[mode] = system.metrics.snapshot()
        if mode_path is not None:
            atomic_write_text(
                mode_path, _json.dumps(_asdict(summary), sort_keys=True)
            )
    return result
