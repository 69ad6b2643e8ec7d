"""The UKSM backend: whole-system scanning under a CPU budget.

Rides the software-KSM backend's chunk machinery (same core occupancy,
same cache-cost sink) and substitutes UKSM's three differences: the
:class:`~repro.ksm.uksm.UKSMDaemon` (every anonymous page, strided
sample hash) and the CPU-budget governor, which converts the daemon's
running cycles-per-page estimate into the next interval's page quota.
The estimate is fed back here from each chunk's measured cycle cost.
"""

from repro.ksm.uksm import UKSMConfig, UKSMDaemon
from repro.sim.backends.base import MergerBundle
from repro.sim.backends.ksm import KSMSoftwareBackend
from repro.sim.backends.registry import register_backend


def _uksm_config(ksm_config):
    """Lift a plain KSMConfig into UKSMConfig, keeping shared tuning."""
    if isinstance(ksm_config, UKSMConfig):
        return ksm_config
    return UKSMConfig(
        sleep_millisecs=ksm_config.sleep_millisecs,
        pages_to_scan=ksm_config.pages_to_scan,
        hash_bytes=ksm_config.hash_bytes,
        full_compare_on_merge=ksm_config.full_compare_on_merge,
    )


@register_backend("uksm")
class UKSMBackend(KSMSoftwareBackend):
    """UKSM: budgeted, madvise-free scanning on the KSM chunk path.

    User-guided merge hints are honored through the inherited KSM path:
    ``UKSMDaemon`` shares the pass queue and checksum gate, so a hinted
    page jumps the queue pre-keyed exactly as under plain KSM.
    """

    supports_recovery = True

    @classmethod
    def build_bundle(cls, hypervisor, machine, *, controller=None,
                     cost_sink=None, line_sampling=8, verify_ecc=False):
        daemon = UKSMDaemon(
            hypervisor, _uksm_config(machine.ksm), cost_sink=cost_sink,
            frequency_hz=machine.processor.frequency_hz,
        )
        return MergerBundle(merger=daemon, daemon=daemon)

    # Timed face -----------------------------------------------------------------

    def _chunk_quota(self):
        # UKSM's defining knob: the quota adapts so the daemon spends
        # ~cpu_budget_frac of one core per wake interval.
        sleep_s = self.system.machine.ksm.sleep_millisecs / 1000.0
        return self.daemon.pages_for_interval(sleep_s)

    def _observe_chunk(self, interval, total_cycles):
        self.daemon.observe_interval_cost(
            interval.pages_scanned, total_cycles
        )

    def register_metrics(self, registry):
        super().register_metrics(registry)
        registry.register("uksm", lambda: {
            "cycles_per_page_estimate": self.daemon.cycles_per_page_estimate,
            "cpu_budget_frac": self.daemon.config.cpu_budget_frac,
        })

    # Functional state ------------------------------------------------------------

    @classmethod
    def capture_functional(cls, bundle):
        from repro.recovery.serialize import capture_daemon

        return {
            "daemon": capture_daemon(bundle.daemon),
            "cycles_per_page_estimate":
                bundle.daemon.cycles_per_page_estimate,
        }

    @classmethod
    def restore_functional(cls, bundle, state):
        from repro.recovery.serialize import restore_daemon

        restore_daemon(bundle.daemon, state["daemon"])
        bundle.daemon.cycles_per_page_estimate = state[
            "cycles_per_page_estimate"
        ]
        return bundle
