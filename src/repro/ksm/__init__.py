"""KSM substrate: RedHat's Kernel Same-page Merging, ported faithfully.

Implements Algorithm 1 of the paper: the stable and unstable red-black
trees indexed by page contents, the jhash2-based page checksum over 1 KB
(Linux's ``calc_checksum``), pass structure with unstable-tree reset, and
merging via the hypervisor's CoW machinery.  Every byte compared and every
byte hashed is counted, so the timing model can charge the daemon's work
to whichever core it runs on (Table 4).
"""

from repro.ksm.compare import compare_pages
from repro.ksm.daemon import KSMDaemon, KSMPassStats, KSMWorkStats
from repro.ksm.esx import ESXStyleMerger, PageForgeESXBackend, SoftwareESXBackend
from repro.ksm.jhash import jhash2, page_checksum
from repro.ksm.rbtree import ContentRBTree, RBNode, WalkOutcome
from repro.ksm.uksm import UKSMConfig, UKSMDaemon, sample_hash

__all__ = [
    "ContentRBTree",
    "ESXStyleMerger",
    "KSMDaemon",
    "KSMPassStats",
    "KSMWorkStats",
    "PageForgeESXBackend",
    "RBNode",
    "SoftwareESXBackend",
    "UKSMConfig",
    "UKSMDaemon",
    "WalkOutcome",
    "compare_pages",
    "jhash2",
    "page_checksum",
    "sample_hash",
]
