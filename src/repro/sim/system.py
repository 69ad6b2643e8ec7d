"""The composed server system and its timing model.

One :class:`ServerSystem` instance is one experiment: the Table 2 machine
running one TailBench application in one merging configuration.  The
paper's three configurations (baseline / ksm / pageforge) plus the
Section 7.2 related designs (uksm / esx) are *merge backends*, resolved
through :mod:`repro.sim.backends` — the system itself never branches on
a mode string.

**Component architecture.**  ``ServerSystem`` is the timing around one
:class:`~repro.sim.host.FunctionalHost` (stream ``{app}/content``, churn
on, the system's snoop bus), which holds the guests and the merge stack
and does the fault arming, auditor wiring and hints.  The system adds
the caches, controllers, DRAM and cores (the home controller and the
:class:`~repro.sim.backends.cachecost.CacheCostSink` go to the host's
merge stack) and four components over the shared
:class:`~repro.sim.engine.EventQueue`: the
:class:`~repro.sim.memmodel.MemoryModel` (DRAM latency, bandwidth
contention, L3 pollution, the memory-side clock); the
:class:`~repro.sim.load.LoadGenerator` (query lifecycle and the per-core
FIFOs that queries and kernel chunks share); the mode's
:class:`~repro.sim.backends.base.MergeBackend`, the timed face over the
host's stack, driving itself through
:meth:`ServerSystem.schedule_kernel_chunk`; and the
:class:`~repro.sim.metrics.MetricsRegistry`.

**What is simulated vs. modelled.**  The merging machinery is simulated
at line granularity: the KSM daemon really walks content trees, hashes
pages, and streams every compared line through the caches of the core it
occupies; the PageForge engine really fetches lines at the memory
controller, coalesces requests, and assembles ECC keys.  Application
*service time* is an analytical function driven by those simulated
quantities:

``service = shape x (cpu + n_l3_accesses x per_access_cycles / f)``

where ``per_access_cycles = (1-m) * L3_rt + m * (L3_rt + dram * cf)``.
The L3 local miss rate ``m`` starts at the app's baseline (Table 4) and
rises with *measured* KSM stream volume displacing L3 content (decaying
with a refill time constant); the contention factor ``cf`` rises with
*measured* recent DRAM bandwidth (KSM, PageForge, and app traffic).  A
query-level access simulation cannot warm a 32 MB L3 at feasible
sampling rates, so displacement and contention are the two physical
channels through which interference reaches application latency — the
same two channels the paper describes (CPU steal is the third, and that
one is simulated directly via core occupancy).

Scale note: the paper simulates 512 MB VMs; a software model cannot scan
millions of real pages per interval, so experiments run with smaller
images (``SimulationScale.pages_per_vm``).  KSM's *per-interval* work
(``pages_to_scan = 400`` every 5 ms) is preserved, so the interference a
core experiences per interval matches the paper's configuration.
"""

from dataclasses import dataclass

from repro.cache import CoreCacheHierarchy, SetAssocCache, SnoopBus
from repro.common.config import MachineConfig
from repro.common.rng import DeterministicRNG
from repro.cpu import Core, KernelTaskScheduler
from repro.mem import MemoryController
from repro.mem.controller import home_controller_for
from repro.mem.dram import DRAMModel
from repro.sim.backends import CacheCostSink, get_backend
from repro.sim.engine import EventQueue
from repro.sim.host import FunctionalHost
from repro.sim.load import LoadGenerator
from repro.sim.memmodel import MemoryModel
from repro.sim.metrics import KSMTimingStats, MetricsRegistry

__all__ = [
    "MODES",
    "KSMTimingStats",
    "ServerSystem",
    "SimulationScale",
]

#: The paper's three evaluated configurations (Section 5.3).  The
#: backend registry is wider (``repro.sim.backends.available_backends``
#: adds ``uksm`` and ``esx``); MODES stays the canonical figure set.
MODES = ("baseline", "ksm", "pageforge")


@dataclass(frozen=True)
class SimulationScale:
    """Knobs that trade simulation time for statistical resolution."""

    pages_per_vm: int = 2000
    n_vms: int = 10
    duration_s: float = 1.5
    warmup_s: float = 1.0
    contention_beta: float = 3.0
    #: L3 displacement -> extra app miss-rate coupling (dimensionless).
    pollution_sensitivity: float = 0.55
    #: L3 refill time constant: how fast the app re-warms after a scan.
    pollution_tau_s: float = 0.015
    #: Mean DRAM access latency seen by an L3 miss (CPU cycles, before
    #: bandwidth-contention inflation).
    dram_latency_cycles: int = 120
    #: On-chip network + MC queueing cycles a *core-issued* request pays
    #: on top of raw DRAM timing.  PageForge requests skip this path —
    #: the module sits in the memory controller (Section 4.3).
    core_memory_overhead_cycles: int = 60
    #: At full scale the scanned set (GBs of VM pages) cannot stay
    #: L3-resident; scaled-down images would let it, so the KSM stream's
    #: DRAM-miss fraction is floored here.
    scan_miss_floor: float = 0.65
    os_check_cycles: int = 12_000  # Table 5: OS polls the Scan Table
    os_check_cost_cycles: int = 150
    os_refill_cost_cycles: int = 300

    def horizon_s(self):
        return self.warmup_s + self.duration_s


class ServerSystem:
    """One full-machine experiment (Section 5.3 configurations)."""

    def __init__(self, app, mode="baseline", machine=None, scale=None,
                 seed=2017, fault_plan=None, auditor=None,
                 scenario="steady_state"):
        backend_cls = get_backend(mode)  # ValueError lists the registry
        self.app = app
        self.mode = mode
        self.machine = machine or MachineConfig()
        self.scale = scale or SimulationScale()
        self.freq = self.machine.processor.frequency_hz

        # RNG streams: content (the host's) and load are mode-independent
        # so all configurations see identical workloads.
        base = DeterministicRNG(seed, app.name)
        self._rng_query = base.derive("query")
        self._rng_arrivals = [
            base.derive(f"arrivals/{i}") for i in range(self.scale.n_vms)
        ]
        self._rng_mode = base.derive(f"mode/{mode}")

        self._build_machine()
        self._build_host(seed, scenario)
        self._build_load()
        self._build_merging(backend_cls, fault_plan)
        # Optional runtime verification: an InvariantAuditor re-checks
        # merge/CoW/tree/Scan-Table invariants as the system runs.
        self.auditor = auditor
        if auditor is not None:
            self.host.attach_auditor(auditor)
        # Hints go in *after* the auditor attaches, so hinted merges run
        # under the same frame-accounting checks as scanned ones.
        self.hint_stats = self.host.offer_hints()
        self._calibrate()
        self._build_metrics()

    # Construction ----------------------------------------------------------------

    def _build_machine(self):
        proc = self.machine.processor
        self.dram = DRAMModel(self.machine.dram, cpu_frequency_hz=self.freq)
        self.memmodel = MemoryModel(
            self.machine, self.scale, self.app, self.dram, self.freq
        )
        self.bus = SnoopBus(page_invalidation_scope="shared-only")
        self.l3 = SetAssocCache(proc.l3)
        self.bus.register_shared(self.l3)
        self.cores = [Core(i) for i in range(proc.n_cores)]
        self.hierarchies = [
            CoreCacheHierarchy(
                i, proc, self.l3, self.bus,
                memory_latency_fn=self.memmodel.core_miss_latency,
            )
            for i in range(proc.n_cores)
        ]
        self.ksm_core = 0
        self.events = None  # attached in run()

    def _build_host(self, seed, scenario):
        # The workload scenario shapes images, churn, arrivals, and
        # merge hints; ``steady_state`` reproduces the pre-registry
        # behaviour bit for bit (the goldens pin it).
        scale = self.scale
        self.host = FunctionalHost(
            f"{self.app.name}/content", backend=None, app=self.app,
            n_vms=scale.n_vms, pages_per_vm=scale.pages_per_vm, seed=seed,
            churn=True, scenario=scenario, bus=self.bus,
        )
        self.scenario = self.host.scenario
        self.hypervisor = self.host.hypervisor
        self.vms = self.host.images.vms
        self.churner = self.host.churner
        self.controllers = [
            MemoryController(i, self.hypervisor.memory, dram=self.dram,
                             verify_ecc=False)
            for i in range(self.machine.n_memory_controllers)
        ]

    def _build_load(self):
        self.load = LoadGenerator(
            self, self._rng_arrivals, self._rng_query,
            scenario=self.scenario,
        )

    def _build_merging(self, backend_cls, fault_plan):
        self.ksm_timing = KSMTimingStats()
        self.scheduler = KernelTaskScheduler(
            self.machine.processor.n_cores, self._rng_mode.derive("sched")
        )
        self.cost_sink = CacheCostSink(self)
        # A fault plan arms PageForge's controller and engine, and its
        # degradation governor decides per wake whether the interval
        # runs on the hardware or falls back to software KSM; software
        # modes read memory through the CPU, immune to the line faults.
        # Armed or not, the timed engine keeps ``line_sampling=8``.
        bundle = self.host.build_merge_stack(
            self.mode, self.machine, fault_plan,
            controller=home_controller_for(
                self.controllers, self.machine.pageforge
            ),
            cost_sink=self.cost_sink,
        )
        # Legacy attributes: tools reach the KSM daemon as ``ksm`` and
        # the PageForge driver as ``pf_driver``.
        self.pf_driver = getattr(bundle, "driver", None)
        self.ksm = getattr(bundle, "daemon", None) if self.pf_driver is None else None
        self.backend = backend_cls(self)

    def _build_metrics(self):
        registry = MetricsRegistry()
        registry.register("memory_model", self.memmodel.metrics)
        registry.register("load", self.load.metrics)
        registry.register("ksm_timing", lambda: self.ksm_timing)
        registry.register("hypervisor", lambda: self.hypervisor.stats)
        registry.register("footprint", lambda: {
            "guest_pages": self.hypervisor.guest_pages(),
            "footprint_pages": self.hypervisor.footprint_pages(),
        })
        registry.register("dram", lambda: self.dram.stats)
        registry.register("scenario", lambda: {
            "name": self.scenario.name,
            "hints_offered": self.hint_stats["offered"],
            "hints_accepted": self.hint_stats["accepted"],
            "hints_ignored": self.hint_stats["ignored"],
        })
        for i, controller in enumerate(self.controllers):
            registry.register(f"mc{i}", self._controller_metrics(controller))
        self.backend.register_metrics(registry)
        self.metrics = registry

    @staticmethod
    def _controller_metrics(controller):
        def provider():
            stats = controller.stats
            return {
                "reads": stats.total_reads,
                "writes": stats.total_writes,
                "coalesced_requests": stats.coalesced_requests,
                "network_serviced": stats.network_serviced,
                "dram_serviced": stats.dram_serviced,
                "expired_reads": stats.expired_reads,
            }

        return provider

    def _calibrate(self):
        """Fix the per-query L3-access count from the app's nominal mix.

        At baseline (miss rate ``m0``, no contention) the memory part of
        a query must equal ``memory_boundness x service_scale``; the
        count follows from the baseline per-access latency.  All modes
        use the same count, so latency differences come only from changed
        memory behaviour and core occupancy.
        """
        app = self.app
        scale_s = app.service_scale_s / app.sim_time_compression
        l3_rt = self.machine.processor.l3.round_trip_cycles
        m0 = app.l3_miss_rate_baseline
        per_access = (1 - m0) * l3_rt + m0 * (
            l3_rt + self.scale.dram_latency_cycles
        )
        self._cpu_s = (1.0 - app.memory_boundness) * scale_s
        mem_budget_s = app.memory_boundness * scale_s
        self._n_l3_accesses = mem_budget_s * self.freq / per_access
        self._baseline_per_access_cycles = per_access

    # Component delegation (stable external surface) ------------------------------

    @property
    def collector(self):
        return self.load.collector

    @property
    def _mem_now(self):
        return self.memmodel.now_s

    @_mem_now.setter
    def _mem_now(self, value):
        self.memmodel.now_s = value

    def add_pollution(self, n_bytes, now):
        """Merge-machinery bytes that displaced L3 contents."""
        self.memmodel.add_pollution(n_bytes, now)

    def app_l3_miss_rate(self, now):
        """Current app-visible L3 local miss rate (baseline + pollution)."""
        return self.memmodel.app_l3_miss_rate(now)

    # Query execution ----------------------------------------------------------------

    def _query_service_s(self, vm):
        now = self.events.now if self.events else 0.0
        self.memmodel.touch(now)
        m = self.memmodel.app_l3_miss_rate(now)
        self.memmodel.observe_query_miss_rate(m)
        cf = self.memmodel.contention_factor()
        l3_rt = self.machine.processor.l3.round_trip_cycles
        per_access = (1 - m) * l3_rt + m * (
            l3_rt + self.scale.dram_latency_cycles * cf
        )
        mem_s = self._n_l3_accesses * per_access / self.freq
        service_s = self.load.service_shape.factor() * (
            self._cpu_s + mem_s
        )
        # Record the query's DRAM traffic (its L3 misses) for Fig. 11,
        # spread over the query's service time rather than lumped at its
        # start (long queries would otherwise fake bandwidth spikes).
        app_bytes = int(self._n_l3_accesses * m * 64)
        self.dram.stats.bytes_by_source["app"] += app_bytes
        window = self.dram.bandwidth.window_seconds
        n_slices = max(1, int(service_s / window) + 1)
        per_slice = app_bytes // n_slices
        for k in range(n_slices):
            self.dram.bandwidth.record(now + k * window, per_slice, "app")
        return service_s

    # Kernel work --------------------------------------------------------------------

    def schedule_kernel_chunk(self, duration_fn, on_done=None,
                              occupy_ksm_core=False):
        """Queue one kernel chunk on the next scheduler-chosen core.

        The single chunk-scheduling path every merge backend uses
        (formerly duplicated across ``_ksm_wake`` and ``_pf_wake``).
        With ``occupy_ksm_core`` the chosen core becomes the ksmd host
        *before* the chunk can start — the cache-cost sink streams lines
        through that core's hierarchy mid-chunk.
        """
        core_id = self.scheduler.next_core()
        if occupy_ksm_core:
            self.ksm_core = core_id
        self.load.enqueue_chunk(core_id, duration_fn, on_done)
        return core_id

    # Run ----------------------------------------------------------------------------------

    def run(self, events=None):
        """Run warmup + measurement; returns the latency collector."""
        self.events = events or EventQueue()
        self._horizon = self.scale.horizon_s()
        self.load.start(self.events, self._horizon)
        self.backend.start(self.events)
        self.events.run_until(self._horizon)
        self.load.collector.drop_warmup(self.scale.warmup_s)
        return self.load.collector

    # Measurement helpers ---------------------------------------------------------------------

    def kernel_shares(self):
        """Per-core fraction of time in kernel (KSM/OS) work (Table 4)."""
        elapsed = self.scale.horizon_s()
        return [c.stats.kernel_share(elapsed) for c in self.cores]

    def l3_miss_rate(self):
        """Average app-visible L3 local miss rate over the run."""
        return self.memmodel.measured_miss_rate()

    def bandwidth_peak(self):
        """(peak GB/s, per-source breakdown, start) of the busiest window."""
        start, breakdown = self.dram.bandwidth.peak_window_breakdown()
        total = sum(breakdown.values())
        return total, breakdown, start
