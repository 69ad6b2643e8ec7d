"""The WorkloadModel protocol: one seeded factory for every workload layer.

Before this package, adding a workload meant hand-editing four disjoint
layers: :mod:`repro.workloads.memimage` image templates,
:class:`repro.sim.load.LoadGenerator`'s arrival rates,
:mod:`repro.serve.loadgen`'s hard-coded op mix, and
:class:`repro.fleet.config.HostSpec` shard shapes.  A
:class:`WorkloadModel` bundles those decisions behind one object with a
*port* per layer:

* **images** — ``image_profile()`` decides the page-category mix the
  host boots its guests from (memimage port);
* **churn** — ``churn_fraction()`` decides how hard guests overwrite
  their churn pages (the host's WriteChurner);
* **arrivals** — ``arrival_qps()`` scales the per-VM offered load the
  timed simulator's :class:`~repro.workloads.tailbench.ArrivalProcess`
  draws from (sim/load port);
* **serving** — ``serve_heavy_frac`` / ``serve_heavy_pages`` /
  ``serve_light_kind`` are the op mix ``repro loadgen`` fires at a live
  :class:`~repro.serve.server.MergeServer` (serve port);
* **hints** — ``merge_hints()`` names guest-known identical regions for
  the backend hint fast path (``repro.sim.backends.offer_hints``).

Every hook is a pure function of its arguments — scenarios own no RNG
state and build nothing.  One :class:`~repro.sim.host.FunctionalHost`
reads the images, churn and hints ports for the timed and untimed runs
alike, so callers keep full control of stream identity and the
``steady_state`` defaults stay bit-identical with the pre-registry code
paths (the goldens prove it).
"""

from dataclasses import dataclass

from repro.common.config import TAILBENCH_APPS
from repro.common.rng import DeterministicRNG
from repro.workloads.memimage import MemoryImageProfile

__all__ = ["ScenarioSpec", "WorkloadModel"]

#: Fraction of churn pages the default scenario rewrites per churn tick.
CHURN_FRACTION = 0.5


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

    # Write churn (WriteChurner port) ---------------------------------------------

    def churn_fraction(self):
        """Fraction of churn pages rewritten per churn tick."""
        return CHURN_FRACTION

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
    content RNG stream :class:`~repro.sim.system.ServerSystem`'s host
    uses, so a spec's :meth:`host` is bit-identical to the guests inside
    a timed run with the same parameters.
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

    def host(self, backend=None, **options):
        """A :class:`~repro.sim.host.FunctionalHost` booted from this spec
        on :meth:`content_rng`'s stream; ``options`` go to the host."""
        # Lazy: repro.sim imports this package.
        from repro.sim.host import FunctionalHost

        return FunctionalHost(
            self.content_rng().name, backend=backend, app=self.app,
            n_vms=self.n_vms, pages_per_vm=self.pages_per_vm,
            seed=self.seed, scenario=self.scenario, **options,
        )
