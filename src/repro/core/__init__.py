"""PageForge: the paper's primary contribution.

A small hardware module in one memory controller that performs same-page
merging semi-autonomously:

* :mod:`repro.core.scan_table` — the Scan Table (Figure 2b): one PFE
  entry describing the candidate page and 31 "Other Pages" entries linked
  by Less/More indices;
* :mod:`repro.core.engine` — the comparator state machine: lockstep
  line-by-line page comparison at the memory controller, request
  coalescing, background ECC minikey collection;
* :mod:`repro.core.hashkey` — ECC-based hash keys (Figure 6);
* :mod:`repro.core.api` — the five-function OS interface (Table 1);
* :mod:`repro.core.driver` — the OS-side driver that runs KSM's
  algorithm on the hardware (Section 3.4) plus the generality adapters of
  Section 4.2 (arbitrary page sets, page graphs);
* :mod:`repro.core.power` — area/power model (Table 5).
"""

from repro.core.api import PageForgeAPI, PFEInfo
from repro.core.driver import (
    ArbitrarySetStrategy,
    PageForgeMergeDriver,
    PageForgeTreeStrategy,
)
from repro.core.engine import PageForgeEngine, PageForgeStats
from repro.core.hashkey import ECCHashKeyGenerator, ecc_hash_key
from repro.core.power import PageForgePowerModel, PowerReport
from repro.core.scan_table import (
    INVALID_INDEX,
    OtherPageEntry,
    PFEEntry,
    ScanTable,
    miss_sentinel,
    decode_miss_sentinel,
    is_miss_sentinel,
)

__all__ = [
    "ArbitrarySetStrategy",
    "ECCHashKeyGenerator",
    "INVALID_INDEX",
    "OtherPageEntry",
    "PFEEntry",
    "PFEInfo",
    "PageForgeAPI",
    "PageForgeEngine",
    "PageForgeMergeDriver",
    "PageForgePowerModel",
    "PageForgeStats",
    "PageForgeTreeStrategy",
    "PowerReport",
    "ScanTable",
    "decode_miss_sentinel",
    "ecc_hash_key",
    "is_miss_sentinel",
    "miss_sentinel",
]
