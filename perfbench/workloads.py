"""The benchmark's workloads, driven through the layers' public API.

Each workload builds *instances* from a seed.  An instance is set up
(constructed, then advanced through its first full merge pass), then
runs a window of *units*: scan intervals on the timed machine, requests
on the merge service.  Every step the benchmark takes is one *op*,
timed alone with ``time.process_time_ns`` and classed as ``scan`` (it
did merge work) or ``read`` (it did not).

Why timing starts after the first full merge pass: before it ends, KSM
inserts nothing into the stable/unstable trees and the simulator's memo
caches are cold, so the first pass is cheap and unlike the rest of the
run.  Its cost is part of set-up instead.

Window sizes are fixed in units, not in time, so a given seed always
does the same simulated work: digests and counts repeat exactly, and a
faster program simulates the same window, not a longer one.
"""

import hashlib
import json
import time
from dataclasses import asdict

import numpy as np

from repro.common.config import TAILBENCH_APPS
from repro.scenarios import get_scenario
from repro.serve.app import MergeServiceApp
from repro.serve.config import ServeConfig
from repro.serve.deadline import Deadline
from repro.sim.engine import EventQueue
from repro.sim.runner import LatencySummary
from repro.sim.system import ServerSystem, SimulationScale
from repro.verify.invariants import InvariantAuditor, InvariantViolation

__all__ = ["WORKLOADS", "digest_of", "layer_counts", "sub_seed"]

APP = "moses"
SCENARIO = "steady_state"
#: Arrival horizon of the timed machine; far beyond any window.
HORIZON_S = 1000.0


def sub_seed(seed, index):
    """The system seed of instance ``index`` of a run seeded ``seed``."""
    raw = hashlib.blake2b(f"perfbench/{seed}/{index}".encode(),
                          digest_size=4).digest()
    return int.from_bytes(raw, "big")


def _canonical(value):
    """JSON-ready value with floats rounded to 12 significant digits.

    Rounding keeps digests stable across CPUs whose vectorised numpy
    reductions differ in the last bits; any real change in a simulated
    statistic still changes the digest.
    """
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return value if value is None else str(value)


def digest_of(payload):
    text = json.dumps(_canonical(payload), sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _frac(num, den):
    return num / den if den else 0.0


class Fig9Instance:
    """One timed ``ServerSystem`` (moses, 4 VMs x 600 pages)."""

    PAGES_PER_VM = 600
    N_VMS = 4

    def __init__(self, mode, seed):
        scale = SimulationScale(
            pages_per_vm=self.PAGES_PER_VM, n_vms=self.N_VMS,
            warmup_s=0.0, duration_s=HORIZON_S,
        )
        self.system = ServerSystem(
            TAILBENCH_APPS[APP], mode=mode, scale=scale, seed=seed,
            scenario=SCENARIO,
        )
        system = self.system
        self.events = EventQueue()
        system.events = self.events
        system.load.start(self.events, HORIZON_S)
        system.backend.start(self.events)
        driver = system.pf_driver
        self.daemon = system.ksm if driver is None else driver.daemon
        while self.daemon.stats.passes_completed < 1:
            self._step()

    @property
    def ksmd_with_vm(self):
        """Whether the kernel scan thread now sits on a VM's core."""
        system = self.system
        pinned = {vm.pinned_core for vm in system.vms}
        return system.scheduler.current_core in pinned

    def _step(self):
        if not self.events.step():
            raise RuntimeError("event queue drained before the window ended")

    @property
    def sim_now(self):
        return self.events.now

    def run(self, n_scans, meter, on_scan=None):
        """Step events until ``n_scans`` of them have scanned pages.

        Each event goes to ``meter.record`` as a scan or a read.
        ``on_scan(k)`` runs, untimed, after the k-th scan event; the
        window ends early when it returns True.
        """
        stats = self.daemon.stats
        step = self._step
        clock = time.process_time_ns
        done = 0
        while done < n_scans:
            before = stats.pages_scanned
            start = clock()
            step()
            end = clock()
            if stats.pages_scanned != before:
                meter.record("scan", start, end)
                done += 1
                if on_scan is not None and on_scan(done):
                    return
            else:
                meter.record("read", start, end)

    def digest(self):
        """Digest of the run's simulated outputs so far.

        The fields of :class:`LatencySummary` (computed up to now, as
        ``run_latency_experiment`` computes them at its horizon) plus
        the full metrics snapshot and the event clock.
        """
        system = self.system
        now = self.events.now
        collector = system.collector
        shares = [core.stats.kernel_share(now) for core in system.cores]
        peak, breakdown, _start = system.bandwidth_peak()
        summary = LatencySummary(
            app_name=system.app.name,
            mode=system.mode,
            mean_sojourn_s=collector.geomean_mean_sojourn_s(),
            p95_sojourn_s=collector.geomean_p95_sojourn_s(),
            queries=len(collector),
            kernel_share_avg=float(np.mean(shares)),
            kernel_share_max=float(np.max(shares)),
            l3_miss_rate=system.l3_miss_rate(),
            bandwidth_peak_gbps=peak,
            bandwidth_breakdown=breakdown,
            footprint_pages=system.hypervisor.footprint_pages(),
        )
        system.backend.summarize(summary)
        return digest_of({
            "summary": asdict(summary),
            "metrics": system.metrics.snapshot(),
            "now": now,
            "events": self.events.events_dispatched,
        })

    def check(self):
        """Names of the end-of-window checks that failed."""
        try:
            self.system.hypervisor.verify_consistency()
        except AssertionError:
            return ["verify_consistency"]
        return []

    def counters(self):
        """Raw deterministic counters; the benchmark reports deltas."""
        system = self.system
        snap = system.metrics.snapshot()
        caches = [system.l3]
        for hierarchy in system.hierarchies:
            caches += [hierarchy.l1, hierarchy.l2]
        out = {
            "events": self.events.events_dispatched,
            "snoop_probes": system.bus.snoop_probes,
            "snoop_hits": system.bus.supplied_from_cache,
            "evictions": sum(cache.stats.evictions for cache in caches),
            "mc_reads": sum(c.stats.total_reads for c in system.controllers),
            "mc_coalesced": sum(
                c.stats.coalesced_requests for c in system.controllers
            ),
            "dram_row_hits": system.dram.stats.row_hits,
            "dram_row_misses": system.dram.stats.row_misses,
            "pages_scanned": snap["ksm_daemon/pages_scanned"],
            "ksm_merges": snap["ksm_daemon/merges"],
            "virt_merges": snap["hypervisor/merges"],
            "virt_cow_breaks": snap["hypervisor/cow_breaks"],
            "page_comparisons": 0,
            "line_pairs": 0,
            "duplicates": 0,
        }
        if system.pf_driver is not None:
            hw = system.pf_driver.hw_stats
            out["page_comparisons"] = hw.page_comparisons
            out["line_pairs"] = hw.line_pairs_compared
            out["duplicates"] = hw.duplicates_found
        return out


class ServeInstance:
    """An in-process ``MergeServiceApp`` driven by one closed-loop caller.

    ksm backend, churn on, 4 VMs x 400 pages.  The op mix is the
    ``steady_state`` serving mix with its heavy fraction made exact:
    ``round(frac * n)`` scan ops of ``serve_heavy_pages`` pages, the
    rest guest reads, in a seeded random order.  HTTP is left out on
    purpose: socket and thread scheduling latencies are what drifted
    between otherwise identical runs of an HTTP-driven benchmark.
    """

    PAGES_PER_VM = 400
    N_VMS = 4

    def __init__(self, seed):
        model = get_scenario(SCENARIO)
        self.heavy_frac = model.serve_heavy_frac
        self.heavy_pages = model.serve_heavy_pages
        self.light_kind = model.serve_light_kind
        self.config = ServeConfig(
            backend="ksm", app=APP, n_vms=self.N_VMS,
            pages_per_vm=self.PAGES_PER_VM, seed=seed,
            scan_rate=self.heavy_pages,
        )
        self.app = MergeServiceApp(self.config)
        self._rng = np.random.default_rng(seed)
        self._results = hashlib.blake2b(digest_size=16)
        self.scan_ops = 0
        self.failed = 0
        # KSM's scan interval: one scan op stands for one wake.
        self.interval_s = self.app.host.config.sleep_millisecs / 1000.0
        while self.app.host.merger.stats.passes_completed < 1:
            self._op("scan")

    @property
    def sim_now(self):
        """Simulated merge time: one KSM wake interval per scan op."""
        return self.scan_ops * self.interval_s

    def _op(self, kind):
        deadline = Deadline(self.config.max_deadline_s)
        if kind == "scan":
            self.scan_ops += 1
            return self.app.op_workload(deadline, "scan", self.heavy_pages)
        return self.app.op_workload(deadline, self.light_kind)

    def plan(self, n_ops):
        """The seeded op sequence of an ``n_ops`` window."""
        n_scan = round(self.heavy_frac * n_ops)
        kinds = np.array(["scan"] * n_scan + ["read"] * (n_ops - n_scan))
        return self._rng.permutation(kinds).tolist()

    def run(self, n_ops, meter, on_scan=None):
        """Issue the ``n_ops`` ops of :meth:`plan`, timing each.

        Each op goes to ``meter.record``; an op that raises is
        counted as failed.  ``on_scan(k)`` runs, untimed, after the k-th
        scan op; the window ends early when it returns True.
        """
        clock = time.process_time_ns
        done_scans = 0
        for kind in self.plan(n_ops):
            start = clock()
            try:
                result = self._op(kind)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                end = clock()
                self.failed += 1
                result = {"error": type(exc).__name__}
            else:
                end = clock()
            meter.record(kind, start, end)
            self._results.update(
                json.dumps(_canonical(result), sort_keys=True).encode()
            )
            if kind == "scan":
                done_scans += 1
                if on_scan is not None and on_scan(done_scans):
                    return

    def digest(self):
        """Digest of the host counters plus every op result so far."""
        snap = {
            k: v for k, v in self.app.metrics.snapshot().items()
            if not k.startswith("latency/")
        }
        return digest_of({
            "metrics": snap,
            "results": self._results.hexdigest(),
            "merge_stats": asdict(self.app.host.merger.stats),
        })

    def check(self):
        failed = []
        host = self.app.host
        try:
            host.audit(InvariantAuditor())
        except InvariantViolation:
            failed.append("audit")
        try:
            host.hypervisor.verify_consistency()
        except AssertionError:
            failed.append("verify_consistency")
        return failed

    def counters(self):
        snap = self.app.metrics.snapshot()
        stats = self.app.host.merger.stats
        return {
            "pages_scanned": stats.pages_scanned,
            "ksm_merges": stats.merges,
            "virt_merges": snap["host/merges"],
            "virt_cow_breaks": snap["host/cow_breaks"],
        }


def layer_counts(before, after):
    """The per-layer deterministic counts of a window (after - before)."""
    d = {k: after[k] - before[k] for k in after}
    get = d.get
    return {
        "sim.engine.events": get("events", 0),
        "cache.snoop_hit_frac": _frac(get("snoop_hits", 0),
                                      get("snoop_probes", 0)),
        "cache.evictions": get("evictions", 0),
        "mem.coalesced_frac": _frac(get("mc_coalesced", 0),
                                    get("mc_reads", 0)),
        "mem.dram_row_hit_frac": _frac(
            get("dram_row_hits", 0),
            get("dram_row_hits", 0) + get("dram_row_misses", 0),
        ),
        "core.lines_per_compare": _frac(get("line_pairs", 0),
                                        get("page_comparisons", 0)),
        "core.dup_frac": _frac(get("duplicates", 0),
                               get("page_comparisons", 0)),
        "ksm.merge_frac": _frac(get("ksm_merges", 0),
                                get("pages_scanned", 0)),
        "virt.merges": get("virt_merges", 0),
        "virt.cow_breaks": get("virt_cow_breaks", 0),
    }


class Workload:
    """How one workload builds instances and sizes its windows.

    ``units_per_s`` is the calibration that turns ``--seconds`` into a
    fixed window: about that many units run per CPU second on the host
    the benchmark was tuned on.  ``instances`` is how many independently
    seeded instances share the window, to average out seed-to-seed
    differences of the simulated machine.

    ``strata`` (optional) maps a stratum key to the number of instances
    taken from it, and ``stratum(instance)`` gives an instance's key
    after set-up; built instances from a full stratum are discarded.
    """

    def __init__(self, name, build, units_per_s, instances,
                 stratum=None, strata=None):
        self.name = name
        self.build = build
        self.units_per_s = units_per_s
        self.instances = instances
        self.stratum = stratum
        self.strata = strata or {None: instances}
        if sum(self.strata.values()) != instances:
            raise ValueError(f"{name}: strata do not add up to instances")

    def key(self, instance):
        return None if self.stratum is None else self.stratum(instance)

    def units_per_instance(self, seconds):
        total = max(1, round(seconds * self.units_per_s))
        return max(1, round(total / self.instances))


WORKLOADS = {
    "fig9_pageforge": Workload(
        "fig9_pageforge", lambda seed: Fig9Instance("pageforge", seed),
        units_per_s=2.0, instances=5,
    ),
    # ksmd placement is sticky (it moves with probability 0.05 per
    # wake), and a scan interval on a core that also runs a VM's queries
    # waits behind them: 60-130 ms of simulated time per scan against
    # ~20 ms on an idle core.  Which of the two an instance gets is a
    # coin flip of its seed, so instances are drawn in the stationary
    # proportion, 4 VM cores of 10: 12 of 30 start on a VM's core.
    "fig9_ksm": Workload(
        "fig9_ksm", lambda seed: Fig9Instance("ksm", seed),
        units_per_s=4.5, instances=30,
        stratum=lambda instance: instance.ksmd_with_vm,
        strata={True: 12, False: 18},
    ),
    "serve_churn": Workload(
        "serve_churn", ServeInstance, units_per_s=300.0, instances=4,
    ),
}
