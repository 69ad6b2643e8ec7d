"""Replicated recovery: journal-streaming primary-backup with failover.

``protocol``  — length-prefixed, checksummed frames and the incremental
                :class:`FrameDecoder`;
``transport`` — :class:`ChaosLink`, the per-replica fault-injecting
                link (drop/duplicate/reorder/lag/partition);
``replica``   — :class:`ReplicaState`, an independently durable journal
                + checkpoint copy whose workdir is directly resumable;
``monitor``   — :class:`ReplicationMonitor`, stream-health telemetry
                exported through the :class:`MetricsRegistry` seam;
``group``     — :class:`ReplicaGroup`, the replicas of one primary:
                frame fan-out, deterministic election, promotion and
                the final drain;
``session``   — the in-process tier (:class:`ReplicationSession`) with
                failover-by-resume;
``cluster``   — :class:`ReplicatedSupervisor`, the process-tree harness
                with real sockets and real SIGKILL (`repro replicate`,
                and `repro supervise` with zero replicas).
"""

from repro.recovery.replication.cluster import (
    ReplicatedSupervisor,
    run_primary_worker,
)
from repro.recovery.replication.group import ReplicaGroup
from repro.recovery.replication.monitor import ReplicationMonitor
from repro.recovery.replication.protocol import (
    FrameCorrupt,
    FrameDecoder,
    ack_frame,
    checkpoint_frame,
    decode_frame_body,
    encode_frame,
    eof_frame,
    heartbeat_frame,
    hello_frame,
    record_frame,
)
from repro.recovery.replication.replica import ReplicaState
from repro.recovery.replication.session import (
    JournalStreamer,
    ReplicationSession,
)
from repro.recovery.replication.transport import ChaosLink

__all__ = [
    "ChaosLink",
    "FrameCorrupt",
    "FrameDecoder",
    "JournalStreamer",
    "ReplicaGroup",
    "ReplicaState",
    "ReplicatedSupervisor",
    "ReplicationMonitor",
    "ReplicationSession",
    "ack_frame",
    "checkpoint_frame",
    "decode_frame_body",
    "encode_frame",
    "eof_frame",
    "heartbeat_frame",
    "hello_frame",
    "record_frame",
    "run_primary_worker",
]
