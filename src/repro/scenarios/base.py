"""The WorkloadModel protocol: one seeded factory for every workload layer.

Before this package, adding a workload meant hand-editing four disjoint
layers: :mod:`repro.workloads.memimage` image templates,
:class:`repro.sim.load.LoadGenerator`'s arrival rates,
:mod:`repro.serve.loadgen`'s hard-coded op mix, and
:class:`repro.fleet.config.HostSpec` shard shapes.  A
:class:`WorkloadModel` bundles those decisions behind one object with a
*port* per layer:

* **images** — ``image_profile()`` / ``build_images()`` decide the
  page-category mix and boot the guests (memimage port);
* **churn** — ``churn_fraction()`` / ``make_churner()`` decide how hard
  guests overwrite their churn pages (WriteChurner port, timed and
  untimed hosts alike);
* **arrivals** — ``arrival_qps()`` scales the per-VM offered load the
  timed simulator's :class:`~repro.workloads.tailbench.ArrivalProcess`
  draws from (sim/load port);
* **serving** — ``serve_heavy_frac`` / ``serve_heavy_pages`` /
  ``serve_light_kind`` are the op mix ``repro loadgen`` fires at a live
  :class:`~repro.serve.server.MergeServer` (serve port);
* **hints** — ``merge_hints()`` names guest-known identical regions for
  the backend hint fast path (``repro.sim.backends.offer_hints``).

Every hook is a pure function of its arguments and the RNG it is
handed — scenarios own no RNG state, so callers keep full control of
stream identity and the ``steady_state`` defaults stay bit-identical
with the pre-registry code paths (the goldens prove it).
"""

from dataclasses import dataclass

from repro.common.config import TAILBENCH_APPS
from repro.common.rng import DeterministicRNG
from repro.workloads.memimage import (
    MemoryImageProfile,
    WriteChurner,
    build_vm_images,
)

__all__ = ["ScenarioSpec", "WorkloadModel"]


class WorkloadModel:
    """Base workload scenario: the paper's steady-state defaults."""

    #: Overwritten by the ``@register_scenario`` decorator.
    name = "abstract"
    #: One-line description for ``--help`` text and the README table.
    summary = "paper steady-state defaults"

    # Serving op mix (serve/loadgen port) -----------------------------------------

    #: Fraction of requests that are heavy page-scan ops.
    serve_heavy_frac = 0.1
    #: Pages one heavy op touches.
    serve_heavy_pages = 400
    #: Request kind of the light (non-scan) ops.
    serve_light_kind = "read"

    # Guest images (memimage port) ------------------------------------------------

    def image_profile(self, app, pages_per_vm):
        """Page-category mix for one guest of ``app``."""
        return MemoryImageProfile.for_app(app, pages_per_vm)

    def build_images(self, hypervisor, app, n_vms, pages_per_vm, rng):
        """Boot ``n_vms`` guests from the scenario's image profile."""
        profile = self.image_profile(app, pages_per_vm)
        return build_vm_images(hypervisor, profile, n_vms, rng)

    # Write churn (WriteChurner port) ---------------------------------------------

    def churn_fraction(self, scale):
        """Fraction of churn pages rewritten per churn tick."""
        return scale.churn_pages_per_tick

    def make_churner(self, hypervisor, images, rng, scale):
        return WriteChurner(
            hypervisor, images.churn_pages, rng,
            fraction_per_tick=self.churn_fraction(scale),
        )

    # Query arrivals (sim/load port) ----------------------------------------------

    def arrival_qps(self, app):
        """Per-VM offered load (queries/s) for ``app``."""
        return app.qps

    # Merge hints (backend fast-path port) ----------------------------------------

    def merge_hints(self, images):
        """User-guided merge hints, as an iterable of ``(vm_id, gpn)``.

        Default: none.  Scenarios modelling guest cooperation (the
        serverless fleet) return the regions the guest *knows* are
        identical across sandboxes; ``repro.sim.backends.offer_hints``
        hands them to the backend's scanner, or counts them ignored.
        """
        return ()


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully-parametrized scenario instantiation — the seeded factory.

    Bundles the scenario name with the world-shape knobs (app, VM count,
    pages per VM, seed) every consumer needs, and derives the *same*
    content RNG stream :class:`~repro.sim.system.ServerSystem` uses, so
    a spec built here is bit-identical to the images inside a timed run
    with the same parameters.
    """

    scenario: str = "steady_state"
    app: str = "moses"
    n_vms: int = 4
    pages_per_vm: int = 200
    seed: int = 2017

    def __post_init__(self):
        from repro.scenarios.registry import get_scenario

        get_scenario(self.scenario)  # fail fast; error lists the registry
        if self.app not in TAILBENCH_APPS:
            known = ", ".join(sorted(TAILBENCH_APPS))
            raise ValueError(f"unknown app {self.app!r}; known apps: {known}")
        if self.n_vms <= 0 or self.pages_per_vm <= 0:
            raise ValueError("n_vms and pages_per_vm must be positive")

    @property
    def app_config(self):
        return TAILBENCH_APPS[self.app]

    def model(self):
        """A fresh WorkloadModel instance for this spec's scenario."""
        from repro.scenarios.registry import get_scenario

        return get_scenario(self.scenario)()

    def content_rng(self):
        """The image-content stream, derived exactly as ServerSystem does."""
        return DeterministicRNG(self.seed, self.app).derive("content")

    def build_images(self, hypervisor):
        """Boot this spec's guests into ``hypervisor``."""
        return self.model().build_images(
            hypervisor, self.app_config, self.n_vms,
            self.pages_per_vm, self.content_rng(),
        )
