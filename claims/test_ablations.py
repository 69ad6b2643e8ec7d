"""Design ablations: the alternatives and knobs the paper argues about.

* Merging algorithms (Sections 2, 7): KSM, UKSM and ESX-style hash
  buckets reach the same footprint; the hash filter compares least.
* KSM aggressiveness (Section 2.1): a bigger ``pages_to_scan`` budget
  converges in fewer, heavier intervals.
* Scan-Table capacity (Section 4): table size changes refill count,
  never the merge result.
* PageForge placement (Section 4.1): in the memory controller, DRAM-
  serviced lines never cross the interconnect.
* Cache-bypassing software scans (Section 4.3): no pollution, but no
  cheaper either.
* Line sampling: the sampled comparator merges exactly what the exact
  per-line engine merges.
* The timing model's interference channels: KSM's overhead decomposes
  into CPU steal (the floor), L3 pollution and DRAM contention.
"""

import pytest

from repro.cache import CoreCacheHierarchy, SetAssocCache, SnoopBus
from repro.common.config import KSMConfig, PageForgeConfig, ProcessorConfig
from repro.core.driver import PageForgeMergeDriver
from repro.mem import MemoryController
from repro.sim import SimulationScale, run_latency_experiment
from repro.sim.host import FunctionalHost


# Merging algorithms ----------------------------------------------------------------


@pytest.fixture(scope="module")
def algorithms():
    """``{backend: (footprint, full page comparisons)}`` on one image set."""
    runs = {}
    for backend in ("ksm", "uksm", "esx"):
        host = FunctionalHost(
            "ablate-algos", backend=backend, n_vms=6, pages_per_vm=120,
            seed=5, pages_to_scan=5000,
        )
        host.merger.run_to_steady_state(max_passes=6)
        stats = host.merger.stats
        comparisons = (
            stats.full_comparisons if backend == "esx" else stats.comparisons
        )
        runs[backend] = (host.footprint(), comparisons)
    return runs


def test_algorithms_agree_on_footprint(algorithms):
    assert len({footprint for footprint, _ in algorithms.values()}) == 1, \
        algorithms


def test_esx_compares_least(algorithms):
    """The hash filter prunes candidates a tree walk must touch."""
    esx = algorithms["esx"][1]
    assert esx < algorithms["ksm"][1], algorithms
    assert esx < algorithms["uksm"][1], algorithms


# KSM aggressiveness ----------------------------------------------------------------


@pytest.fixture(scope="module")
def ksm_budgets():
    """Per budget (ascending): intervals to converge and the heaviest
    interval's bytes touched, plus the final and target footprints."""
    rows = []
    for budget in (100, 400, 1600):
        host = FunctionalHost(
            f"ablate-ksm-{budget}", backend="ksm", n_vms=6,
            pages_per_vm=200, seed=13, pages_to_scan=budget,
        )
        target = host.images.expected_merged_footprint(churn_active=False)
        intervals = 0
        heaviest = 0
        while host.footprint() > target and intervals < 500:
            heaviest = max(heaviest, host.scan().total_bytes_touched)
            intervals += 1
        rows.append({"budget": budget, "intervals": intervals,
                     "heaviest": heaviest, "footprint": host.footprint(),
                     "target": target})
    return rows


def test_all_budgets_converge(ksm_budgets):
    for row in ksm_budgets:
        assert row["footprint"] == row["target"], row


def test_bigger_budget_fewer_intervals(ksm_budgets):
    intervals = [row["intervals"] for row in ksm_budgets]
    assert intervals == sorted(intervals, reverse=True), intervals


def test_bigger_budget_heavier_intervals(ksm_budgets):
    """The interference trade: fewer, but heavier, intervals."""
    heaviest = [row["heaviest"] for row in ksm_budgets]
    assert heaviest == sorted(heaviest), heaviest


# PageForge driver variants -------------------------------------------------------


def _pageforge_run(host_id, seed, n_vms=6, pages_per_vm=150, **driver_kwargs):
    """A no-merger host merged to steady state by a PageForge driver
    built with ``driver_kwargs`` (line sampling, Scan-Table config)."""
    host = FunctionalHost(host_id, backend=None, n_vms=n_vms,
                          pages_per_vm=pages_per_vm, seed=seed)
    driver = PageForgeMergeDriver(
        host.hypervisor,
        MemoryController(0, host.hypervisor.memory, verify_ecc=False),
        ksm_config=KSMConfig(pages_to_scan=2000), **driver_kwargs,
    )
    driver.run_to_steady_state(max_passes=6)
    return host, driver


@pytest.fixture(scope="module")
def scan_table_sizes():
    """Per Other-Pages capacity (ascending): footprint, refills, compares."""
    rows = []
    for capacity in (7, 15, 31, 63):
        host, driver = _pageforge_run(
            f"ablate-scan-{capacity}", 77, line_sampling=8,
            pf_config=PageForgeConfig(other_pages_entries=capacity),
        )
        rows.append({"capacity": capacity, "footprint": host.footprint(),
                     "refills": driver.strategy.table_refills,
                     "comparisons": driver.hw_stats.page_comparisons})
    return rows


def test_savings_invariant_to_scan_table_size(scan_table_sizes):
    assert len({row["footprint"] for row in scan_table_sizes}) == 1, \
        scan_table_sizes


def test_bigger_scan_table_fewer_refills(scan_table_sizes):
    refills = [row["refills"] for row in scan_table_sizes]
    assert refills == sorted(refills, reverse=True), refills


def test_scan_table_size_keeps_comparisons(scan_table_sizes):
    """The tree walk compares the same pages regardless of batching."""
    comparisons = [row["comparisons"] for row in scan_table_sizes]
    assert max(comparisons) - min(comparisons) <= 0.2 * max(comparisons), \
        comparisons


def test_mc_placement_keeps_traffic_off_interconnect():
    """In the MC only cache-supplied lines cross the network; on the
    interconnect every line would.  With no cores running, nearly
    everything comes from DRAM."""
    _host, driver = _pageforge_run("ablate-alt", 31, line_sampling=8)
    stats = driver.hw_stats
    mc_side = stats.lines_from_network
    interconnect_side = stats.lines_from_network + stats.lines_from_dram
    assert interconnect_side > mc_side
    assert mc_side <= 0.1 * interconnect_side, (mc_side, interconnect_side)


def test_sampled_timing_agrees_with_exact():
    runs = [
        _pageforge_run("ablate-alt", 31, n_vms=4, pages_per_vm=60,
                       line_sampling=sampling)
        for sampling in (1, 8)
    ]
    (exact_host, exact), (sampled_host, sampled) = runs
    assert exact.stats.merges == sampled.stats.merges
    assert exact_host.footprint() == sampled_host.footprint()


# Cache-bypassing software scan ------------------------------------------------------


def test_cache_bypass_removes_pollution_not_cost():
    """Non-allocating scan accesses leave the L3 clean but still pay the
    memory path on every access — the CPU cycles remain."""

    def scan(allocate):
        proc = ProcessorConfig(n_cores=1)
        bus = SnoopBus()
        l3 = SetAssocCache(proc.l3)
        bus.register_shared(l3)
        hierarchy = CoreCacheHierarchy(0, proc, l3, bus, lambda *a: 150)
        stalls = 0
        for ppn in range(200):
            for line in range(16):
                stalls += hierarchy.access(
                    ppn * 64 + line, source="ksm", allocate=allocate
                ).latency_cycles
        return stalls, l3.occupancy()

    alloc_stalls, _ = scan(allocate=True)
    bypass_stalls, bypass_lines = scan(allocate=False)
    assert bypass_lines == 0
    assert bypass_stalls >= alloc_stalls


# Timing-model interference channels ---------------------------------------------------


@pytest.fixture(scope="module")
def channels():
    """masstree's normalised KSM mean latency with each channel on/off."""

    def ksm_overhead(pollution, contention):
        scale = SimulationScale(
            pages_per_vm=700, n_vms=10, duration_s=0.4, warmup_s=0.5,
            pollution_sensitivity=pollution, contention_beta=contention,
        )
        return run_latency_experiment(
            "masstree", modes=("baseline", "ksm"), scale=scale
        ).normalized_mean("ksm")

    return {
        "all-on": ksm_overhead(0.55, 3.0),
        "no-pollution": ksm_overhead(0.0, 3.0),
        "no-contention": ksm_overhead(0.55, 0.0),
        "cpu-steal-only": ksm_overhead(0.0, 0.0),
    }


def test_all_channels_at_least_cpu_steal(channels):
    assert channels["all-on"] >= channels["cpu-steal-only"], channels


def test_disabling_a_channel_never_raises_overhead(channels):
    assert channels["no-pollution"] <= channels["all-on"] + 0.03, channels
    assert channels["no-contention"] <= channels["all-on"] + 0.03, channels


def test_cpu_steal_is_floor(channels):
    """With both channels off, overhead is pure queueing behind the
    daemon's core occupancy — and still clearly above 1.0."""
    assert channels["cpu-steal-only"] > 1.0, channels
