"""One shard: a full ServerSystem run packaged for a worker process.

``run_shard`` is the map step of the fleet pipeline.  It is a plain
module-level function over a picklable :class:`ShardTask` so a
``ProcessPoolExecutor`` can ship it to any worker; everything the reduce
step needs comes back in a picklable :class:`ShardResult`.

The timed run is *identical* to one mode of
:func:`~repro.sim.runner.run_latency_experiment` — same ServerSystem
construction, same :class:`~repro.sim.runner.LatencySummary` assembly —
so a single-host fleet reduces to exactly the numbers ``repro run``
prints (the differential tests pin this).
"""

from dataclasses import asdict, dataclass, field
from typing import Dict

from repro.common.config import TAILBENCH_APPS
from repro.fleet.config import FleetSpec, HostSpec
from repro.sim.host import frame_digest_counts
from repro.sim.runner import latency_summary
from repro.sim.system import ServerSystem, SimulationScale

__all__ = [
    "ShardResult",
    "ShardTask",
    "frame_digest_counts",
    "run_shard",
    "shard_tasks",
]


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to run one host, fully resolved.

    The seed is resolved (fleet seed already folded in) before the task
    is shipped, so a worker never sees fleet-global state — the task is
    the whole contract.
    """

    host_id: int
    backend: str
    app: str
    n_vms: int
    pages_per_vm: int
    seed: int
    duration_s: float
    warmup_s: float
    scenario: str = "steady_state"


def shard_tasks(spec: FleetSpec):
    """Resolve a validated FleetSpec into per-host ShardTasks."""
    spec.validate()
    return [
        ShardTask(
            host_id=host.host_id,
            backend=host.backend,
            app=host.app,
            n_vms=host.n_vms,
            pages_per_vm=host.pages_per_vm,
            seed=host.resolve_seed(spec.seed),
            duration_s=spec.duration_s,
            warmup_s=spec.warmup_s,
            scenario=host.scenario,
        )
        for host in spec.hosts
    ]


@dataclass
class ShardResult:
    """One host's contribution to the fleet reduce.

    ``summary`` is the flattened LatencySummary dict (identical to a
    ``repro run`` row's source); ``metrics`` is the host's full
    component-metrics snapshot; ``digest_counts`` feeds the cross-host
    dedup measurement.
    """

    host_id: int
    backend: str
    app: str
    seed: int
    summary: Dict[str, object]
    metrics: Dict[str, object]
    digest_counts: Dict[str, int]
    scenario: str = "steady_state"
    guest_pages: int = 0
    footprint_pages: int = 0
    merges: int = 0
    cow_breaks: int = 0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def queries(self):
        return int(self.summary["queries"])

    @property
    def mean_sojourn_s(self):
        return float(self.summary["mean_sojourn_s"])

    @property
    def p95_sojourn_s(self):
        return float(self.summary["p95_sojourn_s"])

    @property
    def savings_frac(self):
        if not self.guest_pages:
            return 0.0
        return 1.0 - self.footprint_pages / self.guest_pages


def run_shard(task: ShardTask) -> ShardResult:
    """Run one host end to end (the map step).

    Pure function of ``task``: no module globals are read or written
    beyond semantically-neutral memo caches, so running in a fresh
    worker, a reused worker, or inline in the parent produces the same
    bits — the property the determinism suite asserts.
    """
    scale = SimulationScale(
        pages_per_vm=task.pages_per_vm, n_vms=task.n_vms,
        duration_s=task.duration_s, warmup_s=task.warmup_s,
    )
    system = ServerSystem(TAILBENCH_APPS[task.app], mode=task.backend,
                          scale=scale, seed=task.seed,
                          scenario=task.scenario)
    system.run()
    hyp = system.hypervisor
    return ShardResult(
        host_id=task.host_id,
        backend=task.backend,
        app=task.app,
        seed=task.seed,
        scenario=task.scenario,
        summary=asdict(latency_summary(system)),
        metrics=system.metrics.snapshot(),
        digest_counts=frame_digest_counts(hyp),
        guest_pages=hyp.guest_pages(),
        footprint_pages=hyp.footprint_pages(),
        merges=hyp.stats.merges,
        cow_breaks=hyp.stats.cow_breaks,
    )


def run_shard_from_spec(spec: FleetSpec, host: HostSpec) -> ShardResult:
    """Convenience: run one host of a fleet without the pool machinery."""
    (task,) = shard_tasks(spec.with_hosts([host]))
    return run_shard(task)
