"""Fleet specification: hosts, backends, and the seed-derivation tree.

A *fleet* is a set of simulated hosts; each host is one independent
shard — a full :class:`~repro.sim.system.ServerSystem` (Table 2 machine)
running its own VMs under its own merge backend.  The spec layer is pure
data (picklable, hashable where frozen) so a shard can travel to a
worker process unchanged.

**Seed derivation.**  Determinism is the fleet layer's headline
correctness property: one fleet seed must reproduce the whole fleet
bit-for-bit regardless of worker count or scheduling order.  The seed
tree mirrors :class:`~repro.common.rng.DeterministicRNG`'s scheme —
SHA-256 over ``"{seed}:{path}"`` — one level up:

::

    fleet_seed
      └─ sha256("{fleet_seed}:fleet/host/{host_id}") -> shard seed
           └─ DeterministicRNG(shard_seed, app.name)   (inside the shard)
                ├─ content / query / arrivals / mode streams (PR 5)
                └─ ...

Every host's stream is therefore independent of every other host's and
of how many hosts exist — adding host 7 never perturbs host 3.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.common.config import TAILBENCH_APPS
from repro.scenarios import available_scenarios, get_scenario
from repro.sim.backends import available_backends, get_backend

__all__ = [
    "FleetSpec",
    "HostSpec",
    "shard_seed",
]


def shard_seed(fleet_seed, host_id):
    """Deterministic per-host seed derived from the single fleet seed.

    Uses the same SHA-256 construction as :class:`DeterministicRNG`
    naming, so the derivation is stable across Python versions and
    processes (never ``hash()``, which is salted).
    """
    material = f"{int(fleet_seed)}:fleet/host/{int(host_id)}".encode()
    digest = hashlib.sha256(material).digest()
    # 63 bits: positive, and well within what ServerSystem accepts.
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class HostSpec:
    """One simulated host: a shard of the fleet.

    ``seed=None`` (the default) derives the shard seed from the fleet
    seed via :func:`shard_seed`; an explicit seed pins it — the
    differential tests use that to build N *identical* hosts whose
    reduced metrics must equal exactly N times one host's.
    """

    host_id: int
    backend: str = "ksm"
    app: str = "moses"
    n_vms: int = 4
    pages_per_vm: int = 200
    seed: Optional[int] = None
    scenario: str = "steady_state"

    def resolve_seed(self, fleet_seed):
        return self.seed if self.seed is not None else shard_seed(
            fleet_seed, self.host_id
        )

    def validate(self):
        get_backend(self.backend)  # ValueError lists the registry
        get_scenario(self.scenario)  # likewise for scenarios
        if self.app not in TAILBENCH_APPS:
            raise ValueError(
                f"unknown app {self.app!r}; known apps: "
                f"{', '.join(TAILBENCH_APPS)}"
            )
        if self.n_vms < 1 or self.pages_per_vm < 1:
            raise ValueError(
                f"host {self.host_id}: n_vms and pages_per_vm must be >= 1"
            )
        return self


@dataclass(frozen=True)
class FleetSpec:
    """The whole fleet: hosts plus the shared timing-scale knobs.

    ``duration_s``/``warmup_s`` parameterise every shard's
    :class:`~repro.sim.system.SimulationScale` identically; per-host
    size and backend live on the :class:`HostSpec`.
    """

    seed: int = 2017
    hosts: Tuple[HostSpec, ...] = field(default_factory=tuple)
    duration_s: float = 0.3
    warmup_s: float = 0.4

    @property
    def n_hosts(self):
        return len(self.hosts)

    @property
    def n_vms(self):
        return sum(h.n_vms for h in self.hosts)

    def validate(self):
        if not self.hosts:
            raise ValueError("fleet has no hosts")
        ids = [h.host_id for h in self.hosts]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate host_ids in fleet: {sorted(ids)}")
        for host in self.hosts:
            host.validate()
        return self

    # Builders --------------------------------------------------------------------

    @classmethod
    def uniform(cls, n_shards, backend="ksm", app="moses", n_vms=4,
                pages_per_vm=200, seed=2017, duration_s=0.3,
                warmup_s=0.4, scenario="steady_state"):
        """A homogeneous fleet: ``n_shards`` identical-shape hosts."""
        hosts = tuple(
            HostSpec(host_id=i, backend=backend, app=app, n_vms=n_vms,
                     pages_per_vm=pages_per_vm, scenario=scenario)
            for i in range(n_shards)
        )
        return cls(seed=seed, hosts=hosts, duration_s=duration_s,
                   warmup_s=warmup_s).validate()

    @classmethod
    def heterogeneous(cls, n_shards, backends, app="moses", n_vms=4,
                      pages_per_vm=200, seed=2017, duration_s=0.3,
                      warmup_s=0.4, scenarios=("steady_state",)):
        """A mixed fleet: hosts cycle through ``backends`` in order.

        ``backends=("ksm", "pageforge", "esx")`` with 5 shards yields
        hosts running ksm, pageforge, esx, ksm, pageforge — the mixed-
        tier placement shape (CARAM-style) the CLI's repeatable
        ``--backend`` flag builds.  ``scenarios`` cycles the same way
        and independently, so heterogeneous fleets mix workloads
        exactly as they mix backends.
        """
        backends = tuple(backends)
        if not backends:
            raise ValueError("need at least one backend")
        unknown = [b for b in backends if b not in available_backends()]
        if unknown:
            raise ValueError(
                f"unknown merge backend(s) {', '.join(unknown)}; "
                f"registered backends: {', '.join(available_backends())}"
            )
        scenarios = tuple(scenarios)
        if not scenarios:
            raise ValueError("need at least one scenario")
        unknown = [s for s in scenarios if s not in available_scenarios()]
        if unknown:
            raise ValueError(
                f"unknown scenario(s) {', '.join(unknown)}; "
                f"registered scenarios: {', '.join(available_scenarios())}"
            )
        hosts = tuple(
            HostSpec(host_id=i, backend=backends[i % len(backends)],
                     app=app, n_vms=n_vms, pages_per_vm=pages_per_vm,
                     scenario=scenarios[i % len(scenarios)])
            for i in range(n_shards)
        )
        return cls(seed=seed, hosts=hosts, duration_s=duration_s,
                   warmup_s=warmup_s).validate()
