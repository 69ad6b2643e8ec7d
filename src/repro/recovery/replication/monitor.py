"""Replication telemetry, exported through the MetricsRegistry seam.

:class:`ReplicationMonitor` watches the stream from the primary's side:
frames out, acks in, per-replica acked LSNs, lag samples (primary
durable LSN minus replica acked LSN, in records), failover count and
latency.  ``register_with`` plugs it into a
:class:`~repro.sim.metrics.MetricsRegistry` as a provider named
``replication``, so its counters leave the simulator through the same
flattened-snapshot path as every other component's.
"""

import time

from repro.sim.metrics import summarize


class ReplicationMonitor:
    """Primary-side view of stream health and failover history."""

    def __init__(self):
        self.primary_lsn = 0
        self.frames_streamed = 0
        self.records_streamed = 0
        self.checkpoints_streamed = 0
        self.heartbeats_streamed = 0
        self.acked_lsn = {}  # replica id -> highest acked LSN
        self.lag_samples = []
        self.failovers = 0
        self.failover_latency_s = []
        self.promoted = []
        self._net_stats = None
        self._replicas = None

    # Wiring -----------------------------------------------------------------------

    def attach(self, net_stats=None, replicas=None):
        """Fold link-level stats and replica states into snapshots."""
        if net_stats is not None:
            self._net_stats = net_stats
        if replicas is not None:
            self._replicas = replicas
        return self

    def register_with(self, registry, name="replication"):
        registry.register(name, self.snapshot)
        return self

    # Observation ------------------------------------------------------------------

    def observe_frame(self, frame):
        """Called once per frame the primary puts on the wire."""
        self.frames_streamed += 1
        kind = frame["kind"]
        if kind == "record":
            self.records_streamed += 1
        elif kind == "checkpoint":
            self.checkpoints_streamed += 1
            self.primary_lsn = max(self.primary_lsn, frame["journal_seq"])
        elif kind == "heartbeat":
            self.heartbeats_streamed += 1
            self.primary_lsn = max(self.primary_lsn, frame["lsn"])
        elif kind == "eof":
            self.primary_lsn = max(self.primary_lsn, frame["lsn"])

    def observe_ack(self, ack):
        replica = ack["replica"]
        self.acked_lsn[replica] = max(
            self.acked_lsn.get(replica, 0), ack["lsn"]
        )

    def sample_lag(self, active=None):
        """Record each live replica's lag behind the primary, in records."""
        replicas = self.acked_lsn if active is None else {
            r: self.acked_lsn.get(r, 0) for r in active
        }
        for _replica, acked in sorted(replicas.items()):
            self.lag_samples.append(max(0, self.primary_lsn - acked))

    def record_failover(self, promoted_id, started_mono=None):
        self.failovers += 1
        self.promoted.append(str(promoted_id))
        if started_mono is not None:
            self.failover_latency_s.append(
                max(0.0, time.monotonic() - started_mono)
            )

    # Export -----------------------------------------------------------------------

    def snapshot(self):
        out = {
            "primary_lsn": self.primary_lsn,
            "frames_streamed": self.frames_streamed,
            "records_streamed": self.records_streamed,
            "checkpoints_streamed": self.checkpoints_streamed,
            "heartbeats_streamed": self.heartbeats_streamed,
            "failovers": self.failovers,
            "lag_records": summarize(self.lag_samples),
            "failover_latency_s": summarize(self.failover_latency_s),
            "acked_lsn": dict(self.acked_lsn),
        }
        if self._net_stats is not None:
            out["net"] = self._net_stats.snapshot()
        if self._replicas is not None:
            for replica in self._replicas:
                out[f"replica/{replica.replica_id}"] = replica.snapshot()
        return out
