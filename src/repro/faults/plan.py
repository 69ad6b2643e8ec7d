"""Fault plans: what to break, how often, under which seed.

A :class:`FaultPlan` is pure data — the probabilities of each fault class
plus the seed of the RNG streams that realise them.  The same plan run
twice produces bit-identical fault schedules (``repro.common.rng`` names
every stream), which is what makes chaos campaigns regression-testable.

Fault classes, mapped to the hardware they model:

=====================  ========================================================
``single_bit_rate``    One flipped bit per affected DRAM line — SECDED
                       corrects it; only telemetry changes.
``double_bit_rate``    Two flipped bits in one codeword — detected but
                       uncorrectable; the read raises.
``silent_rate``        Multi-bit damage that aliases to a clean codeword —
                       SECDED sees nothing; only the merge-time lockstep
                       compare can catch the consequences.
``drop_rate``          The request vanishes in the controller (lost
                       completion); the driver retries.
``latency_spike_rate`` The line arrives, but late (queueing glitch,
                       refresh collision).
``table_corruption_``  An SEU in the Scan-Table SRAM mid-walk: a V bit
``rate``               drops or a Less/More pointer is overwritten.
``vm_destroy_prob``    A tenant VM is torn down between merge intervals,
                       racing the engine's stale Scan-Table/tree state.
``unmerge_churn_prob`` madvise(UNMERGEABLE) churn: merged pages are
                       forcibly un-shared and retired from merging.
``process_crash_prob`` The host process dies (SIGKILL / power loss)
                       at a merge-interval boundary; recovery must
                       resume from checkpoint + journal.
``crash_after_ops``    Deterministic kill switch: die once the N-th
                       journaled merge op lands (0 = disabled).  Only
                       armed on the first attempt, so restarts survive.
``net_drop_rate``      A replication frame vanishes on the wire between
                       the primary and one replica (lossy link).
``net_duplicate_rate`` A frame is delivered twice (retransmit glitch);
                       replicas must deduplicate by LSN.
``net_reorder_rate``   A frame is held back and delivered after its
                       successor (cross-path reordering).
``net_lag_frames``     Fixed store-and-forward depth per link: every
                       frame arrives this many sends late — the
                       lagging-replica scenario.
``partition_prob``     Per-frame probability that the link partitions:
                       the next ``partition_frames`` frames are lost,
                       then the link heals (rejoin).  The replica
                       resynchronises from the next checkpoint frame.
=====================  ========================================================
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class FaultPlan:
    """Per-class fault probabilities (all default to a quiet plan)."""

    seed: int = 0
    # Per-line-read probabilities on the DRAM read path (mutually
    # exclusive per read; their sum must stay below 1).
    single_bit_rate: float = 0.0
    double_bit_rate: float = 0.0
    silent_rate: float = 0.0
    drop_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_cycles: int = 5_000
    # Per-walk-step probability of Scan-Table SRAM corruption.
    table_corruption_rate: float = 0.0
    # Per-merge-interval probabilities of VM lifecycle churn.
    vm_destroy_prob: float = 0.0
    unmerge_churn_prob: float = 0.0
    unmerge_pages_per_event: int = 4
    # Whole-process death, realised by the recovery subsystem.
    process_crash_prob: float = 0.0
    crash_after_ops: int = 0
    # Per-frame replication-transport faults (mutually exclusive per
    # frame, like the line classes; their sum must stay below 1).
    net_drop_rate: float = 0.0
    net_duplicate_rate: float = 0.0
    net_reorder_rate: float = 0.0
    net_lag_frames: int = 0
    partition_prob: float = 0.0
    partition_frames: int = 16

    def __post_init__(self):
        total = (
            self.single_bit_rate
            + self.double_bit_rate
            + self.silent_rate
            + self.drop_rate
            + self.latency_spike_rate
        )
        if not 0.0 <= total < 1.0:
            raise ValueError(f"per-line fault rates sum to {total}")
        if self.crash_after_ops < 0:
            raise ValueError(
                f"crash_after_ops must be >= 0: {self.crash_after_ops}"
            )
        if self.net_lag_frames < 0:
            raise ValueError(
                f"net_lag_frames must be >= 0: {self.net_lag_frames}"
            )
        if self.partition_frames < 0:
            raise ValueError(
                f"partition_frames must be >= 0: {self.partition_frames}"
            )
        net_total = self.net_fault_rate
        if not 0.0 <= net_total < 1.0:
            raise ValueError(f"per-frame net fault rates sum to {net_total}")
        for name in (
            "table_corruption_rate", "vm_destroy_prob",
            "unmerge_churn_prob", "process_crash_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {value}")

    @property
    def net_fault_rate(self):
        """Total probability that one replication frame is affected."""
        return (
            self.net_drop_rate
            + self.net_duplicate_rate
            + self.net_reorder_rate
            + self.partition_prob
        )

    @classmethod
    def quiet(cls, seed=0):
        """No faults at all (control runs)."""
        return cls(seed=seed)

    @classmethod
    def uniform(cls, rate, seed=0, table_rate=None, churn=False):
        """Split a total per-line fault rate across the line classes.

        The split (50% correctable / 15% uncorrectable / 10% silent /
        15% drops / 10% spikes) loosely follows field studies where
        correctable errors dominate.  ``table_rate`` defaults to the same
        ``rate`` per walk step; ``churn=True`` adds VM lifecycle chaos
        (which perturbs the page population, so savings-curve sweeps
        leave it off).
        """
        return cls(
            seed=seed,
            single_bit_rate=0.50 * rate,
            double_bit_rate=0.15 * rate,
            silent_rate=0.10 * rate,
            drop_rate=0.15 * rate,
            latency_spike_rate=0.10 * rate,
            table_corruption_rate=rate if table_rate is None else table_rate,
            vm_destroy_prob=0.05 if churn else 0.0,
            unmerge_churn_prob=0.30 if churn else 0.0,
        )

    @classmethod
    def lossy_network(cls, rate, seed=0, lag=0, partition_prob=0.0,
                      partition_frames=16):
        """A transport-only plan for replication chaos campaigns.

        The per-frame rate splits 60% drops / 20% duplicates / 20%
        reorders (loss dominates on a congested loopback path); the
        merging stack itself runs fault-free so the campaign isolates
        the replication tier.
        """
        return cls(
            seed=seed,
            net_drop_rate=0.60 * rate,
            net_duplicate_rate=0.20 * rate,
            net_reorder_rate=0.20 * rate,
            net_lag_frames=lag,
            partition_prob=partition_prob,
            partition_frames=partition_frames,
        )
