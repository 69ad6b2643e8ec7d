"""Crash-safe checkpointing, merge-op journaling, supervised recovery.

``serialize``  — full bit-exact state capture/restore for every mutable
                 component (memory, hypervisor, trees, engine, RNGs);
``snapshot``   — versioned, checksummed, atomically-published checkpoint
                 files (:class:`CheckpointStore`);
``journal``    — the fsync-batched write-ahead merge journal with torn-
                 tail recovery and lockstep divergence detection;
``runner``     — :class:`RecoverableRun`, the checkpointable merge loop
                 whose resume is bit-identical to never having crashed,
                 and :func:`check_equivalence` against an uninterrupted
                 replay;
``replication`` — the crash/resume drivers: journal-streaming
                 primary-backup replicas, failover and chaos transport,
                 in process (:class:`ReplicationSession`) or as a
                 watchdog process tree (:class:`ReplicatedSupervisor`,
                 `repro replicate`).  With zero replicas they are the
                 single-node tier (`repro supervise`).
"""

from repro.recovery.journal import (
    JournalCorrupt,
    MergeJournal,
    RecoveryDivergence,
    read_journal,
    replay_journal,
)
from repro.recovery.replication import (
    ReplicatedSupervisor,
    ReplicationMonitor,
    ReplicationSession,
)
from repro.recovery.runner import RecoverableRun, RunSpec
from repro.recovery.snapshot import (
    CheckpointCorrupt,
    CheckpointStore,
    dump_checkpoint,
    load_checkpoint,
)

__all__ = [
    "CheckpointCorrupt",
    "CheckpointStore",
    "JournalCorrupt",
    "MergeJournal",
    "RecoverableRun",
    "RecoveryDivergence",
    "ReplicatedSupervisor",
    "ReplicationMonitor",
    "ReplicationSession",
    "RunSpec",
    "dump_checkpoint",
    "load_checkpoint",
    "read_journal",
    "replay_journal",
]
