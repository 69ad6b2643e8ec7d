"""Multiple PageForge modules (the Section 4.1 design alternative).

The paper evaluates one module in one memory controller, arguing that
per-controller modules would (a) multiply memory pressure, (b) not avoid
cross-controller traffic (pages interleave across controllers), and
(c) need coordination.  This extension implements that alternative so the
trade can be measured: N engines scan N candidates concurrently, a
coordinator hands each module its own candidate stream, and aggregate
scan throughput and memory traffic scale with N.
"""

from dataclasses import dataclass, field
from typing import List

from repro.common.config import KSMConfig, PageForgeConfig
from repro.core.api import PageForgeAPI
from repro.core.driver import PageForgeTreeStrategy
from repro.core.engine import PageForgeEngine
from repro.ksm import KSMDaemon


@dataclass
class MultiModuleStats:
    """Aggregate view over all modules."""

    per_module_comparisons: List[int] = field(default_factory=list)
    per_module_cycles: List[int] = field(default_factory=list)

    @property
    def makespan_cycles(self):
        """Wall-clock cycles when modules run concurrently."""
        return max(self.per_module_cycles) if self.per_module_cycles else 0

    @property
    def total_traffic_cycles(self):
        """Serial-equivalent cycles (proportional to memory pressure)."""
        return sum(self.per_module_cycles)


class MultiPageForge:
    """A coordinator over one PageForge module per memory controller.

    Scanning work is sharded by candidate: module ``k`` scans candidates
    ``k, k+N, k+2N, ...`` of each interval.  Each module runs the full
    KSM algorithm against the *shared* trees — the coordination cost the
    paper warns about shows up as interleaved tree updates.
    """

    def __init__(self, hypervisor, controllers, bus=None, ksm_config=None,
                 pf_config=None, line_sampling=1):
        if not controllers:
            raise ValueError("need at least one memory controller")
        self.hypervisor = hypervisor
        self.config = pf_config or PageForgeConfig(n_modules=len(controllers))
        self.engines = [
            PageForgeEngine(controller, bus=bus, config=self.config,
                            line_sampling=line_sampling)
            for controller in controllers
        ]
        self.apis = [PageForgeAPI(engine) for engine in self.engines]
        self.strategies = [
            PageForgeTreeStrategy(api, hypervisor) for api in self.apis
        ]
        # One daemon owns the trees; modules take turns executing its
        # hardware walks.  Module rotation happens per candidate via the
        # strategy multiplexer below.
        self._next_module = 0
        multi = self

        class _RoundRobinStrategy:
            def walk(self, tree, frame):
                strategy = multi.strategies[multi._next_module]
                multi._next_module = (
                    (multi._next_module + 1) % len(multi.strategies)
                )
                return strategy.walk(tree, frame)

            def checksum(self, frame):
                # The module that last scanned this candidate holds its
                # key; find it by PFE match, else force on module 0.
                for strategy in multi.strategies:
                    pfe = strategy.api.table.pfe
                    if pfe.valid and pfe.ppn == frame.ppn:
                        return strategy.checksum(frame)
                return multi.strategies[0].checksum(frame)

        self._mux = _RoundRobinStrategy()
        self.daemon = KSMDaemon(
            hypervisor,
            config=ksm_config or KSMConfig(),
            search_strategy=self._mux,
            checksum_fn=self._mux.checksum,
            checksum_bytes=64 * len(self.config.ecc_hash_line_offsets),
        )

    @property
    def n_modules(self):
        return len(self.engines)

    def scan_pages(self, n_pages=None, now=0.0):
        for strategy in self.strategies:
            strategy.now = now
        return self.daemon.scan_pages(n_pages)

    def run_to_steady_state(self, max_passes=10):
        return self.daemon.run_to_steady_state(max_passes=max_passes)

    def stats(self):
        return MultiModuleStats(
            per_module_comparisons=[
                engine.stats.page_comparisons for engine in self.engines
            ],
            per_module_cycles=[
                engine.stats.total_cycles for engine in self.engines
            ],
        )

    def drain_cycles(self):
        """(makespan, total) engine cycles since the last drain."""
        drained = [s.drain_cycles() for s in self.strategies]
        return (max(drained) if drained else 0, sum(drained))
