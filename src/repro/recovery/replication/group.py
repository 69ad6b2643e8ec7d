"""The replica group: every replica of one primary and how it fails over.

Both harnesses — the in-process :class:`~repro.recovery.replication.
session.ReplicationSession` and the process-tree :class:`~repro.
recovery.replication.cluster.ReplicatedSupervisor` — hold one
:class:`ReplicaGroup`.  It owns the replicas, one :class:`ChaosLink`
each, the :class:`ReplicationMonitor` and its registry, and implements
the four steps they share: per-frame fan-out, election, promotion and
the final drain.  A group of zero replicas is the single-node tier:
every failover promotes ``<self>`` and the run resumes in place.
"""

from repro.common.io import atomic_write_text
from repro.faults.injector import FaultInjector
from repro.recovery.replication.monitor import ReplicationMonitor
from repro.recovery.replication.protocol import eof_frame
from repro.recovery.replication.replica import ReplicaState
from repro.recovery.replication.transport import ChaosLink
from repro.sim.metrics import MetricsRegistry


class ReplicaGroup:
    """N replicas behind chaos links, plus their telemetry."""

    def __init__(self, spec, clusterdir, n_replicas, registry=None):
        # The net streams come from their own injector so the primary
        # run's merge-fault schedule is untouched by transport chaos.
        self.net_injector = FaultInjector(spec.plan)
        self.monitor = ReplicationMonitor()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.monitor.register_with(self.registry)
        self.replicas = []
        self.links = {}
        for i in range(int(n_replicas)):
            replica = ReplicaState(
                f"replica-{i}", clusterdir / f"replica-{i}",
                keep_checkpoints=spec.keep_checkpoints,
            )
            # The spec lands on disk at join time, not via a droppable
            # hello frame: promotion must never depend on delivery.
            atomic_write_text(replica.workdir / "spec.json", spec.to_json())
            self.replicas.append(replica)
            self.links[replica.replica_id] = ChaosLink(
                self.net_injector, replica.replica_id
            )
        self.monitor.attach(
            net_stats=self.net_injector.net_stats, replicas=self.replicas
        )

    def _deliver(self, replica, frames):
        for frame in frames:
            ack = replica.apply(frame)
            if ack is not None:
                self.monitor.observe_ack(ack)

    def send(self, frame):
        """Fan one primary frame out through every replica's link."""
        self.monitor.observe_frame(frame)
        if frame["kind"] == "heartbeat":
            self.monitor.sample_lag([r.replica_id for r in self.replicas])
        for replica in self.replicas:
            self._deliver(replica, self.links[replica.replica_id].send(frame))

    def elect(self):
        """The failover rule: highest durable LSN, ties to lowest id.

        Deterministic by construction — both criteria are totally
        ordered — so every observer of the same replica states promotes
        the same node.
        """
        if not self.replicas:
            return None
        return max(
            self.replicas,
            key=lambda r: (
                r.durable_lsn, tuple(-ord(c) for c in r.replica_id)
            ),
        )

    def promote(self, primary_dir, crash_mono):
        """Fail over from a dead primary; returns the new primary's workdir.

        The elected replica leaves the group and its workdir becomes the
        primary's.  With no replica left the tier degrades to
        resume-in-place: ``primary_dir`` stays and ``<self>`` is
        recorded as promoted.
        """
        promoted = self.elect()
        if promoted is None:
            self.monitor.record_failover("<self>", crash_mono)
            return primary_dir
        promoted.close()
        self.replicas.remove(promoted)
        self.links.pop(promoted.replica_id)
        self.monitor.record_failover(promoted.replica_id, crash_mono)
        return promoted.workdir

    def close(self):
        """Deliver stragglers, end every stream and close the replicas."""
        final_lsn = self.monitor.primary_lsn
        for replica in self.replicas:
            self._deliver(replica, self.links[replica.replica_id].drain())
            if not replica.eof_seen:
                # The eof may have been eaten by chaos; closing is
                # control-plane, so apply it directly.
                self._deliver(replica, [eof_frame(final_lsn)])
            replica.close()

    def report(self):
        """The failover fields both harnesses return."""
        return {
            "failovers": self.monitor.failovers,
            "promoted": list(self.monitor.promoted),
            "replication": self.monitor.snapshot(),
            "metrics": self.registry.snapshot(),
        }
