"""UKSM — the kernel-patch variant of same-page merging (Section 7.2).

UKSM differs from KSM in three ways the paper calls out:

* the user budgets *CPU utilisation* for merging instead of tuning
  ``sleep_millisecs``/``pages_to_scan``;
* it scans **every anonymous page in the system** rather than only
  ``madvise(MADV_MERGEABLE)`` regions, removing the cloud provider's
  ability to exempt VMs;
* it uses a different (sampling) hash-generation scheme.

This implementation reuses the KSM daemon's tree machinery via
subclassing, overriding candidate selection (all pages, mergeable or
not), the checksum (a strided-sample hash over the whole page rather
than jhash over the first 1 KB), and adding the CPU-budget governor
that converts a utilisation target into a per-interval page quota.
"""

from dataclasses import dataclass

import numpy as np

from repro.common.config import KSMConfig
from repro.ksm.daemon import KSMDaemon, _Candidate
from repro.ksm.jhash import jhash2


@dataclass(frozen=True)
class UKSMConfig(KSMConfig):
    """UKSM tuning: a CPU budget instead of a fixed page quota."""

    cpu_budget_frac: float = 0.20  # share of one core granted to merging
    sample_stride_bytes: int = 128  # strided whole-page sampling hash
    min_pages_per_interval: int = 16
    max_pages_per_interval: int = 4000


def sample_hash(page_bytes, stride=128, initval=17):
    """UKSM-style strided sample hash.

    Hashes one 32-bit word every ``stride`` bytes across the *whole*
    page — wider coverage than KSM's contiguous 1 KB window at the same
    cost, the trade UKSM's different hash algorithm makes.
    """
    data = np.asarray(page_bytes, dtype=np.uint8)
    words = np.ascontiguousarray(data).view(np.uint32)
    step = max(1, stride // 4)
    return jhash2(words[::step], initval)


class UKSMDaemon(KSMDaemon):
    """UKSM: whole-system scanning under a CPU budget."""

    def __init__(self, hypervisor, config=None, cost_sink=None,
                 cycles_per_page_estimate=20_000.0, frequency_hz=2e9):
        config = config or UKSMConfig()
        super().__init__(
            hypervisor, config, cost_sink=cost_sink,
            checksum_fn=lambda frame: sample_hash(
                frame.data, stride=config.sample_stride_bytes
            ),
            checksum_bytes=4096 // max(1, config.sample_stride_bytes) * 4,
        )
        self.cycles_per_page_estimate = float(cycles_per_page_estimate)
        self.frequency_hz = float(frequency_hz)

    # Whole-system scanning: ignore the madvise opt-in ---------------------------

    def _build_pass_queue(self):
        from collections import deque

        queue = deque()
        for vm in self.hypervisor.vms.values():
            for mapping in vm.mappings():  # every page, not just mergeable
                queue.append(_Candidate(vm.vm_id, mapping.gpn))
        return queue

    def _process_candidate(self, candidate, interval):
        # UKSM has no madvise gate: temporarily treat the page as
        # mergeable for the base algorithm's check.
        vm = self.hypervisor.vms.get(candidate.vm_id)
        if vm is None or not vm.is_mapped(candidate.gpn):
            return
        mapping = vm.mapping(candidate.gpn)
        was_mergeable = mapping.mergeable
        mapping.mergeable = True
        try:
            super()._process_candidate(candidate, interval)
        finally:
            mapping.mergeable = was_mergeable

    # The CPU-budget governor -----------------------------------------------------

    def pages_for_interval(self, interval_seconds):
        """Page quota that spends ~budget x interval of one core.

        UKSM's defining knob: the quota adapts to how expensive pages
        have been to scan, keeping CPU usage near the budget.
        """
        cfg = self.config
        budget_cycles = (
            cfg.cpu_budget_frac * interval_seconds * self.frequency_hz
        )
        quota = int(budget_cycles / max(1.0, self.cycles_per_page_estimate))
        return max(
            cfg.min_pages_per_interval,
            min(cfg.max_pages_per_interval, quota),
        )

    def observe_interval_cost(self, pages_scanned, cycles_spent):
        """Update the per-page cost estimate (EWMA) after an interval."""
        if pages_scanned <= 0:
            return
        observed = cycles_spent / pages_scanned
        self.cycles_per_page_estimate = (
            0.7 * self.cycles_per_page_estimate + 0.3 * observed
        )
