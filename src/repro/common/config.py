"""Configuration dataclasses encoding Tables 2 and 3 of the paper.

``default_machine_config`` reproduces the evaluated server: a 10-core
2 GHz out-of-order processor, 32 KB L1 / 256 KB L2 / 32 MB shared L3 with a
snoopy MESI bus, 16 GB of DDR memory over 2 channels, ten single-core VMs
with 512 MB each, and the KSM/PageForge tuning of the paper
(``sleep_millisecs = 5``, ``pages_to_scan = 400``, one PageForge module with
a 31 + 1-entry Scan Table and 32-bit ECC hash keys).
"""

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.common.units import CACHE_LINE_BYTES, GIB, KIB, MIB, PAGE_BYTES


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    round_trip_cycles: int
    mshrs: int
    line_bytes: int = CACHE_LINE_BYTES
    shared: bool = False

    @property
    def n_lines(self):
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self):
        """Set count; non-divisible geometries round down (as a 20-way
        32 MB L3 must)."""
        return max(1, self.n_lines // self.ways)

    def __post_init__(self):
        if self.size_bytes % self.line_bytes != 0:
            raise ValueError(f"{self.name}: size not a multiple of line size")
        if self.size_bytes < self.ways * self.line_bytes:
            raise ValueError(f"{self.name}: fewer lines than ways")


@dataclass(frozen=True)
class ProcessorConfig:
    """Table 2, processor parameters."""

    n_cores: int = 10
    frequency_hz: float = 2e9
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1", size_bytes=32 * KIB, ways=8, round_trip_cycles=2, mshrs=16
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2", size_bytes=256 * KIB, ways=8, round_trip_cycles=6, mshrs=16
        )
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L3",
            size_bytes=32 * MIB,
            ways=20,
            round_trip_cycles=20,
            mshrs=24,  # per slice
            shared=True,
        )
    )
    bus_width_bits: int = 512
    coherence: str = "snoopy-MESI"


@dataclass(frozen=True)
class DRAMConfig:
    """Table 2, main-memory parameters (DDR at 1 GHz over 2 channels)."""

    capacity_bytes: int = 16 * GIB
    channels: int = 2
    ranks_per_channel: int = 8
    banks_per_rank: int = 8
    frequency_hz: float = 1e9
    data_rate: int = 2  # DDR: two transfers per clock
    bus_bytes: int = 8  # 64-bit data bus per channel
    row_bytes: int = 8 * KIB
    # Timing in memory-controller cycles (CPU-domain cycles are derived).
    t_cas: int = 14
    t_rcd: int = 14
    t_rp: int = 14

    @property
    def n_pages(self):
        return self.capacity_bytes // PAGE_BYTES

    @property
    def peak_bandwidth_bytes_per_sec(self):
        """Aggregate peak bandwidth across channels (bytes/second)."""
        return (
            self.channels * self.frequency_hz * self.data_rate * self.bus_bytes
        )


@dataclass(frozen=True)
class VirtualizationConfig:
    """Table 2, host/guest parameters: 10 VMs, 1 core and 512 MB each."""

    n_vms: int = 10
    cores_per_vm: int = 1
    mem_per_vm_bytes: int = 512 * MIB

    @property
    def pages_per_vm(self):
        return self.mem_per_vm_bytes // PAGE_BYTES


@dataclass(frozen=True)
class KSMConfig:
    """KSM tuning (Table 2) shared by the software and hardware configs."""

    sleep_millisecs: float = 5.0
    pages_to_scan: int = 400
    hash_bytes: int = 1 * KIB  # jhash2 digests 1 KB of page contents
    full_compare_on_merge: bool = True  # double-compare under CoW


@dataclass(frozen=True)
class PageForgeConfig:
    """PageForge parameters (Table 2): one module, 31+1-entry Scan Table."""

    other_pages_entries: int = 31
    hash_key_bits: int = 32
    minikey_bits: int = 8
    # Fixed per-section line offsets used for ECC minikeys; tuned via
    # update_ECC_offset (Table 1).  Defaults pick the first line of each
    # 1 KB section.
    ecc_hash_line_offsets: Tuple[int, ...] = (0, 16, 32, 48)
    scan_table_bytes: int = 260
    home_memory_controller: int = 0


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance tuning: the driver's retry path and the
    degradation governor's fallback thresholds.

    Retry path (``repro.core.driver``):

    * ``max_batch_retries`` — how many times a failed Scan-Table batch
      (dropped memory request, uncorrectable ECC line on a tree page,
      detected table corruption) is re-armed before the candidate is
      skipped for the pass (skip-and-report).
    * ``retry_backoff_cycles`` — engine-clock cycles the OS driver waits
      before the first retry; the wait doubles on every further attempt.

    Degradation governor (``repro.faults.governor``) — decides when the
    PageForge backend is unhealthy enough that the merge daemon should
    fall back to software KSM, and when to return:

    * ``fallback_fault_rate`` — observed hardware faults per line read
      (EWMA) above which the driver falls back to software KSM.
      "Observed" means what a real OS can see: corrected-ECC events,
      uncorrectable machine checks, request drops, and detected
      Scan-Table corruption — silent errors are invisible here and are
      instead caught by the merge-time lockstep compare.
    * ``recovery_fault_rate`` — EWMA below which the governor returns to
      the hardware backend.  Must be < ``fallback_fault_rate``; the gap
      is the hysteresis that prevents flapping at the threshold.
    * ``ewma_alpha`` — weight of the newest interval in the fault-rate
      EWMA (1.0 = no smoothing).
    * ``probe_interval`` — while degraded, every Nth merge interval
      still runs on the hardware so the governor gathers fresh evidence
      (a fully software fleet would never observe the fault regime
      subsiding).
    * ``recovery_probes`` — consecutive healthy probes required before
      recovering (debounce against a lucky quiet probe).
    """

    max_batch_retries: int = 3
    retry_backoff_cycles: int = 2_000
    fallback_fault_rate: float = 2e-4
    recovery_fault_rate: float = 5e-5
    ewma_alpha: float = 0.5
    probe_interval: int = 4
    recovery_probes: int = 2

    def __post_init__(self):
        if self.recovery_fault_rate >= self.fallback_fault_rate:
            raise ValueError(
                "recovery_fault_rate must be below fallback_fault_rate "
                "(hysteresis)"
            )


@dataclass(frozen=True)
class ApplicationConfig:
    """One TailBench application: load (Table 3) and service-time scale.

    ``service_scale_s`` is the mean service time of a query; the paper
    notes Sphinx queries are second-scale while Moses queries are
    millisecond-scale, and QPS x service-time determines how hard the KSM
    daemon's interference bites (Section 6.3).
    """

    name: str
    qps: float
    service_scale_s: float
    service_cv: float = 0.5  # coefficient of variation of service times
    # Memory-image composition (Fig. 7 population structure); the rest,
    # 1 - unmergeable_frac - zero_frac, is mergeable non-zero.
    unmergeable_frac: float = 0.45
    zero_frac: float = 0.05
    # Timing-model parameters (derived from the paper's per-app cache
    # behaviour in Table 4: baseline L3 miss rates of 26-44%).
    memory_boundness: float = 0.6  # fraction of service time due to memory
    l3_miss_rate_baseline: float = 0.34  # local L3 miss rate, Baseline
    # Simulation-only time compression: sphinx's 1 QPS / 0.6 s queries
    # would need minutes of simulated time for stable percentiles, so the
    # model runs it N x faster (same utilisation, same service-to-scan-
    # interval ratio regime).
    sim_time_compression: float = 1.0
    working_set_pages: int = 3000  # pages a query's accesses span (per VM)
    hot_page_frac: float = 0.10  # fraction of the working set that is hot
    hot_access_frac: float = 0.70  # accesses landing in the hot set
    write_frac: float = 0.20  # fraction of sampled accesses that write


def _tailbench_apps():
    """Table 3 applications with per-app service scales and Fig. 7 mixes.

    The per-app page mixes are set so the across-app averages match the
    paper's reported 45% unmergeable / 5% zero / 50% mergeable split and
    the per-app variation visible in Figure 7.
    """
    return {
        "img-dnn": ApplicationConfig(
            name="img-dnn",
            qps=500.0,
            service_scale_s=1.4e-3,
            unmergeable_frac=0.47,
            zero_frac=0.05,
            memory_boundness=0.65,
            l3_miss_rate_baseline=0.442,
            working_set_pages=4200,
            hot_access_frac=0.55,
        ),
        "masstree": ApplicationConfig(
            name="masstree",
            qps=500.0,
            service_scale_s=1.2e-3,
            unmergeable_frac=0.50,
            zero_frac=0.04,
            memory_boundness=0.60,
            l3_miss_rate_baseline=0.267,
            working_set_pages=2600,
            hot_access_frac=0.75,
        ),
        "moses": ApplicationConfig(
            name="moses",
            qps=100.0,
            service_scale_s=6.0e-3,
            unmergeable_frac=0.42,
            zero_frac=0.06,
            memory_boundness=0.55,
            l3_miss_rate_baseline=0.308,
            working_set_pages=3000,
            hot_access_frac=0.70,
        ),
        "silo": ApplicationConfig(
            name="silo",
            qps=2000.0,
            service_scale_s=0.32e-3,
            unmergeable_frac=0.44,
            zero_frac=0.05,
            memory_boundness=0.55,
            l3_miss_rate_baseline=0.265,
            working_set_pages=2400,
            hot_access_frac=0.75,
        ),
        "sphinx": ApplicationConfig(
            name="sphinx",
            qps=1.0,
            service_scale_s=0.6,
            sim_time_compression=20.0,
            unmergeable_frac=0.42,
            zero_frac=0.05,
            memory_boundness=0.65,
            l3_miss_rate_baseline=0.410,
            working_set_pages=4000,
            hot_access_frac=0.55,
        ),
    }


#: Table 3: the five evaluated TailBench applications.
TAILBENCH_APPS: Dict[str, ApplicationConfig] = _tailbench_apps()


@dataclass(frozen=True)
class MachineConfig:
    """The full evaluated platform (Table 2 + Table 3 defaults)."""

    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    virtualization: VirtualizationConfig = field(
        default_factory=VirtualizationConfig
    )
    ksm: KSMConfig = field(default_factory=KSMConfig)
    pageforge: PageForgeConfig = field(default_factory=PageForgeConfig)
    n_memory_controllers: int = 2
    seed: int = 2017


def default_machine_config(seed=2017):
    """The paper's evaluated configuration (Tables 2 and 3)."""
    return MachineConfig(seed=seed)
