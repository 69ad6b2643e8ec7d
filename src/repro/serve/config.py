"""Serving configuration: every overload-control knob in one place.

The front-end's robustness behaviour is pure policy over these numbers;
the dataclass is frozen so a running server's control plane cannot be
mutated out from under the admission logic (admin ops that *should*
change behaviour, like the scan rate, live on the app, not here).
"""

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "ChaosProfile",
    "ServeConfig",
]


@dataclass(frozen=True)
class ChaosProfile:
    """Deterministic backend chaos, in the :mod:`repro.faults` idiom.

    The two classes are mutually exclusive per operation (like the DRAM
    line-fault classes): one uniform draw from the ``faults/serve``
    stream decides stall / error / clean.  Injection happens *before*
    the backend op touches simulator state, so an injected failure can
    trip the circuit breaker but can never corrupt merge state.
    """

    seed: int = 0
    stall_prob: float = 0.0
    error_prob: float = 0.0
    stall_s: float = 0.05

    def __post_init__(self):
        total = self.stall_prob + self.error_prob
        if not 0.0 <= total <= 1.0:
            raise ValueError(f"chaos probabilities sum to {total}")
        if self.stall_s < 0:
            raise ValueError(f"stall_s must be >= 0: {self.stall_s}")

    @property
    def active(self):
        return self.stall_prob > 0 or self.error_prob > 0


@dataclass(frozen=True)
class ServeConfig:
    """The live-traffic front-end's wiring and overload policy."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick (tests, selfhost loadgen)

    # The simulated world behind the data plane.
    backend: str = "ksm"
    app: str = "moses"
    n_vms: int = 2
    pages_per_vm: int = 80
    seed: int = 2017
    scan_rate: int = 200  # pages per workload scan op (admin-tunable)

    # Admission: bounded queue + EWMA-latency load shedding.
    queue_depth: int = 32
    slo_latency_s: float = 0.5
    ewma_alpha: float = 0.2
    #: EWMA shedding only arms past this fraction of the queue — a slow
    #: request on an idle server is not overload.
    soft_queue_frac: float = 0.5

    # Deadlines.
    default_deadline_s: float = 1.0
    max_deadline_s: float = 30.0

    # Per-tenant token buckets (0 = unlimited).
    tenant_rate_qps: float = 0.0
    tenant_burst: float = 20.0

    # Circuit breaker around backend operations.
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 2.0
    breaker_halfopen_probes: int = 1

    # Graceful drain.
    drain_timeout_s: float = 10.0
    metrics_out: Optional[str] = None

    chaos: ChaosProfile = field(default_factory=ChaosProfile)

    def __post_init__(self):
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1: {self.queue_depth}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha out of (0, 1]: {self.ewma_alpha}")
        if self.default_deadline_s <= 0 or self.max_deadline_s <= 0:
            raise ValueError("deadlines must be positive")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1: {self.breaker_threshold}"
            )

