"""The ``serverless`` scenario: function sandboxes with merge hints.

Models a serverless fleet the way User-guided Page Merging (arXiv
2311.13588) frames it: many short-lived function sandboxes are cloned
from a handful of runtime images, so almost everything outside the
function's working set — interpreter text, loaded libraries, zeroed
heap — is *known* identical across sandboxes at boot.  The guest (or
its runtime) can therefore hand the merging layer explicit hints
instead of waiting for content scanning to rediscover the duplication.

Hints matter for **cold starts**: a software scanner needs two full
passes over a region before it merges anything (pass 1 seeds checksums,
pass 2 proves stability), so a sandbox's duplicate memory is reclaimed
long after the function has finished.  A hinted page jumps the scan
queue with its stability gate pre-satisfied and merges on first scan.
:func:`run_cold_start_study` quantifies exactly that gap — memory
reclaimed in the first scan interval, and intervals until steady state,
hinted vs unhinted — the cold-start-savings-vs-merge-latency framing
CARAM (arXiv 2007.13661) uses for content-aware placement wins.
"""

from dataclasses import dataclass, replace

from repro.scenarios.base import ScenarioSpec, WorkloadModel
from repro.scenarios.registry import register_scenario

__all__ = ["ColdStartStudy", "ServerlessScenario", "run_cold_start_study"]


@register_scenario("serverless")
class ServerlessScenario(WorkloadModel):
    """Short-lived function sandboxes with user-guided merge hints."""

    summary = ("function sandboxes cloned from shared runtime images, "
               "with user-guided merge hints")

    # Sandboxes are mostly runtime image: little private state, a larger
    # zeroed heap, and near-total sharing of the mergeable region.
    unmergeable_frac = 0.15
    zero_frac = 0.10
    all_shared_frac = 0.97

    # Invocation traffic: bursty short requests with a fat share of
    # scan-type ops (sandbox boot touches many pages at once).
    serve_heavy_frac = 0.3
    serve_heavy_pages = 200

    #: Invocation storms run hotter than steady TailBench load.
    load_factor = 1.5

    def image_profile(self, app, pages_per_vm):
        profile = super().image_profile(app, pages_per_vm)
        return replace(
            profile,
            unmergeable_frac=self.unmergeable_frac,
            zero_frac=self.zero_frac,
            all_shared_frac=self.all_shared_frac,
        )

    def arrival_qps(self, app):
        return app.qps * self.load_factor

    def merge_hints(self, images):
        """Hint the regions every sandbox shares by construction.

        The runtime knows two regions are identical across sandboxes
        before any scanner looks: the zeroed heap and the shared runtime
        image (the ``shared_all`` slice of the layout).  Pair-shared and
        churn pages are deliberately *not* hinted — the guest has no
        global knowledge of cross-pair duplication, and hinting pages
        about to be rewritten would be wrong per the user-guided model.
        """
        hints = []
        for category in ("zero", "shared_all"):
            gpns = images.category_gpns.get(category, range(0))
            for vm in images.vms:
                for gpn in gpns:
                    hints.append((vm.vm_id, gpn))
        return tuple(hints)


@dataclass(frozen=True)
class ColdStartStudy:
    """Hinted-vs-unhinted cold-start measurement for one backend."""

    backend: str
    app: str
    n_sandboxes: int
    pages_per_vm: int
    seed: int
    #: Pages scanned per interval (= one hint sweep by default).
    scan_budget: int
    hints_offered: int
    hints_accepted: int
    baseline_pages: int
    final_pages: int
    #: Footprint after the first scan interval, per run.
    hinted_first_interval_pages: int
    unhinted_first_interval_pages: int
    #: First interval at which the footprint reached its final value.
    hinted_intervals_to_steady: int
    unhinted_intervals_to_steady: int
    auditor_checks: int
    auditor_clean: bool
    #: Both runs must converge to the same footprint: hints change
    #: *when* pages merge, never *whether* they do.
    footprints_equal: bool

    @property
    def reclaimable_pages(self):
        return self.baseline_pages - self.final_pages

    def _first_interval_savings(self, footprint):
        if self.reclaimable_pages <= 0:
            return 0.0
        return (self.baseline_pages - footprint) / self.reclaimable_pages

    @property
    def cold_start_savings_frac(self):
        """Share of reclaimable memory recovered in hinted interval 1."""
        return self._first_interval_savings(self.hinted_first_interval_pages)

    @property
    def unhinted_cold_start_savings_frac(self):
        return self._first_interval_savings(
            self.unhinted_first_interval_pages
        )

    @property
    def hint_speedup(self):
        """How many times fewer scan intervals to steady state with hints."""
        return (self.unhinted_intervals_to_steady
                / max(1, self.hinted_intervals_to_steady))

    def metrics(self):
        """JSON-safe payload for a MetricsRegistry provider."""
        return {
            "backend": self.backend,
            "hints_offered": self.hints_offered,
            "hints_accepted": self.hints_accepted,
            "baseline_pages": self.baseline_pages,
            "final_pages": self.final_pages,
            "cold_start_savings_frac": self.cold_start_savings_frac,
            "unhinted_cold_start_savings_frac":
                self.unhinted_cold_start_savings_frac,
            "hinted_intervals_to_steady": self.hinted_intervals_to_steady,
            "unhinted_intervals_to_steady":
                self.unhinted_intervals_to_steady,
            "hint_speedup": self.hint_speedup,
            "auditor_clean": self.auditor_clean,
            "footprints_equal": self.footprints_equal,
        }

    def register_metrics(self, registry):
        registry.register("serverless_cold_start", self.metrics)


def run_cold_start_study(backend="ksm", app="moses", n_sandboxes=8,
                         pages_per_vm=96, seed=2017, scan_budget=None,
                         max_intervals=64):
    """Measure cold-start savings vs merge latency for merge hints.

    Runs the serverless image twice through ``backend``'s functional
    merging stack — once with the scenario's hints applied, once cold —
    under an :class:`~repro.verify.invariants.InvariantAuditor`, and
    reports footprint-over-intervals for both.  Fully deterministic:
    same arguments, same :class:`ColdStartStudy`, bit for bit.

    ``scan_budget`` defaults to the number of hints, so "one interval"
    means "one sweep of the hinted region" in both runs.
    """
    # Imported lazily: this module is imported by repro.scenarios at
    # package init, before repro.sim exists on some import paths.
    from repro.common.config import KSMConfig
    from repro.sim.backends import offer_hints
    from repro.verify.invariants import InvariantAuditor

    spec = ScenarioSpec("serverless", app, n_sandboxes, pages_per_vm, seed)

    def _run(hinted):
        # The content stream is the one ServerSystem's host uses.
        host = spec.host(backend, pages_to_scan=KSMConfig.pages_to_scan)
        auditor = host.attach_auditor(InvariantAuditor())
        hints = tuple(host.scenario.merge_hints(host.images))
        accepted = offer_hints(host.bundle, hints)["accepted"] if hinted else 0
        budget = scan_budget if scan_budget else max(1, len(hints))
        footprints = [host.footprint()]
        stable = 0
        for _ in range(max_intervals):
            host.scan(budget)
            footprint = host.footprint()
            stable = stable + 1 if footprint == footprints[-1] else 0
            footprints.append(footprint)
            if stable >= 3:
                break
        final = footprints[-1]
        to_steady = footprints.index(final)
        return {
            "hints": len(hints),
            "accepted": accepted,
            "budget": budget,
            "baseline": footprints[0],
            "first_interval": footprints[1],
            "final": final,
            "intervals_to_steady": to_steady,
            "auditor": auditor,
        }

    hinted = _run(hinted=True)
    unhinted = _run(hinted=False)
    auditors = (hinted["auditor"], unhinted["auditor"])
    return ColdStartStudy(
        backend=backend,
        app=app,
        n_sandboxes=n_sandboxes,
        pages_per_vm=pages_per_vm,
        seed=seed,
        scan_budget=hinted["budget"],
        hints_offered=hinted["hints"],
        hints_accepted=hinted["accepted"],
        baseline_pages=hinted["baseline"],
        final_pages=hinted["final"],
        hinted_first_interval_pages=hinted["first_interval"],
        unhinted_first_interval_pages=unhinted["first_interval"],
        hinted_intervals_to_steady=hinted["intervals_to_steady"],
        unhinted_intervals_to_steady=unhinted["intervals_to_steady"],
        auditor_checks=sum(a.total_checks for a in auditors),
        auditor_clean=all(a.clean for a in auditors),
        footprints_equal=hinted["final"] == unhinted["final"],
    )
