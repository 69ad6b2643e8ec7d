"""Shared substrate: units, configuration, deterministic RNG.

Every subsystem in the reproduction draws its architectural parameters from
:mod:`repro.common.config`, which encodes Table 2 (architecture) and Table 3
(application QPS) of the paper.
"""

from repro.common.config import (
    ApplicationConfig,
    CacheConfig,
    DRAMConfig,
    KSMConfig,
    MachineConfig,
    PageForgeConfig,
    ProcessorConfig,
    TAILBENCH_APPS,
    VirtualizationConfig,
    default_machine_config,
)
from repro.common.rng import DeterministicRNG, derive_rng
from repro.common.units import (
    CACHE_LINE_BYTES,
    ECC_CODE_BYTES_PER_LINE,
    KIB,
    GIB,
    MIB,
    PAGE_BYTES,
    LINES_PER_PAGE,
    bytes_to_gib,
    cycles_to_seconds,
    gbps,
    seconds_to_cycles,
)

__all__ = [
    "ApplicationConfig",
    "CacheConfig",
    "CACHE_LINE_BYTES",
    "DeterministicRNG",
    "DRAMConfig",
    "ECC_CODE_BYTES_PER_LINE",
    "GIB",
    "KIB",
    "KSMConfig",
    "LINES_PER_PAGE",
    "MachineConfig",
    "MIB",
    "PAGE_BYTES",
    "PageForgeConfig",
    "ProcessorConfig",
    "TAILBENCH_APPS",
    "VirtualizationConfig",
    "bytes_to_gib",
    "cycles_to_seconds",
    "default_machine_config",
    "derive_rng",
    "gbps",
    "seconds_to_cycles",
]
