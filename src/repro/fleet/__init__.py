"""Fleet-scale sharded simulation with a deterministic reduce.

One fleet = many simulated hosts; each host is an independent shard
(a full :class:`~repro.sim.system.ServerSystem`) run by a worker
process.  The public surface:

* :class:`FleetSpec` / :class:`HostSpec` — pure-data fleet description
  plus the seed-derivation tree (:func:`shard_seed`);
* :func:`run_fleet` — map shards onto workers, reduce to a
  :class:`FleetResult` whose ``fingerprint`` is bit-identical for any
  worker count and any submission order;
* :class:`FunctionalHost` / :func:`migrate_vm` — untimed per-host merge
  stacks (:mod:`repro.sim.host`) and audited VM live migration between
  them.
"""

from repro.fleet.config import FleetSpec, HostSpec, shard_seed
from repro.fleet.migration import (
    MigrationReport,
    VMImagePayload,
    capture_vm,
    migrate_vm,
)
from repro.fleet.reduce import FleetResult, reduce_shards
from repro.fleet.runner import (
    ShardRetryExhausted,
    default_workers,
    run_fleet,
)
from repro.fleet.shard import (
    ShardResult,
    ShardTask,
    frame_digest_counts,
    run_shard,
    shard_tasks,
)
from repro.sim.host import FunctionalHost

__all__ = [
    "FleetResult",
    "FleetSpec",
    "FunctionalHost",
    "HostSpec",
    "MigrationReport",
    "ShardResult",
    "ShardRetryExhausted",
    "ShardTask",
    "VMImagePayload",
    "capture_vm",
    "default_workers",
    "frame_digest_counts",
    "migrate_vm",
    "reduce_shards",
    "run_fleet",
    "run_shard",
    "shard_tasks",
]
