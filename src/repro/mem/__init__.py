"""Memory substrate: page frames, physical memory, DRAM, memory controller.

This package models the right-hand side of Figure 3: the memory controller
with an attached ECC engine, fronting a DDR-style DRAM with channels,
ranks, and banks.  The controller serves each line request as it
arrives (no reordering), coalesces reads of a line that is already in
flight, and accounts traffic per request source.  Page frames hold *real
bytes* so that page comparison, hashing, and ECC codes are computed on
actual content rather than abstractions.
"""

from repro.mem.controller import MemoryController, MemoryControllerStats
from repro.mem.dram import BandwidthWindow, DRAMModel, DRAMStats
from repro.mem.frame import PageFrame
from repro.mem.physmem import OutOfMemoryError, PhysicalMemory
from repro.mem.requests import AccessSource, MemRequest, RequestKind

__all__ = [
    "AccessSource",
    "BandwidthWindow",
    "DRAMModel",
    "DRAMStats",
    "MemRequest",
    "MemoryController",
    "MemoryControllerStats",
    "OutOfMemoryError",
    "PageFrame",
    "PhysicalMemory",
    "RequestKind",
]
