"""Deterministic fleets for the steady-state scan benchmark.

The fixture is tuned so the measured quantity is the *scan path* —
checksums, tree walks, comparisons — rather than merge machinery:

* a long common prefix (3,584 of 4,096 bytes) makes every comparison
  walk deep into the page before deciding, as real same-role VM images
  do (guest kernels and libraries agree until the tail);
* the churn stamps are VM-distinct, so churned copies never re-converge
  across VMs — steady state has no merge/CoW-break cycling, only the
  per-pass rescan load Algorithm 1 pays for unstable pages;
* the full-page checksum window (``hash_bytes=4096``) matches Linux's
  ``calc_checksum`` over the page, making hashing a first-class cost.
"""

import numpy as np

from repro.common.rng import DeterministicRNG
from repro.common.units import PAGE_BYTES
from repro.mem import PhysicalMemory
from repro.virt import Hypervisor
from repro.workloads.memimage import ContentFactory, MemoryImageProfile

#: Bytes every generated page shares before diverging.
COMMON_PREFIX_BYTES = 3584


def build_scan_fleet(n_vms=4, pages_per_vm=250, unmergeable_frac=0.6,
                     churn_frac=0.8, zero_frac=0.04,
                     common_prefix_bytes=COMMON_PREFIX_BYTES, seed=2017):
    """Build a hypervisor fleet for steady-state scanning.

    Returns ``(hypervisor, churn_pages)`` where ``churn_pages`` is the
    list of ``(vm_id, gpn)`` targets :func:`churn_tail` rewrites
    between scan intervals.
    """
    hypervisor = Hypervisor(physical_memory=PhysicalMemory(1024 << 20))
    rng = DeterministicRNG(seed, "bench/steady")
    profile = MemoryImageProfile(
        n_pages_per_vm=pages_per_vm, unmergeable_frac=unmergeable_frac,
        zero_frac=zero_frac, churn_frac=churn_frac,
    )
    factory = ContentFactory(
        rng.derive("content"), common_prefix_bytes=common_prefix_bytes
    )
    n_unique, n_churn, n_zero, n_all, n_pair = profile.counts()
    shared_all = [factory.make() for _ in range(n_all)]
    pair_contents = {
        (s, p): factory.make()
        for s in range(n_pair) for p in range((n_vms + 1) // 2)
    }
    churn_contents = [factory.make() for _ in range(n_churn)]
    churn_pages = []
    for vm_index in range(n_vms):
        vm = hypervisor.create_vm(name=f"bench-vm{vm_index}")
        gpn = 0
        for _ in range(n_unique):
            hypervisor.populate_page(vm, gpn, factory.make(), mergeable=True)
            gpn += 1
        for s in range(n_churn):
            hypervisor.populate_page(vm, gpn, churn_contents[s],
                                     mergeable=True)
            churn_pages.append((vm.vm_id, gpn))
            gpn += 1
        for _ in range(n_zero):
            hypervisor.touch_page(vm, gpn, mergeable=True)
            gpn += 1
        for s in range(n_all):
            hypervisor.populate_page(vm, gpn, shared_all[s], mergeable=True)
            gpn += 1
        for s in range(n_pair):
            hypervisor.populate_page(
                vm, gpn, pair_contents[(s, vm_index // 2)], mergeable=True
            )
            gpn += 1
    return hypervisor, churn_pages


def churn_tail(hypervisor, churn_pages, stamp,
               common_prefix_bytes=COMMON_PREFIX_BYTES):
    """Stamp every churn page's tail with a VM-distinct write.

    The payload encodes ``(stamp, vm_id)`` so the same logical page on
    different VMs never re-converges to equal content — churned pages
    stay permanently unstable instead of cycling through merge and
    CoW-break, which would pollute a scan-throughput measurement with
    hypervisor merge costs.
    """
    slots = (PAGE_BYTES - common_prefix_bytes - 8) // 16
    vms = hypervisor.vms
    for vm_id, gpn in churn_pages:
        vm = vms[vm_id]
        payload = np.frombuffer(
            np.int64(stamp * 1000 + vm_id).tobytes(), dtype=np.uint8
        ).copy()
        offset = common_prefix_bytes + 16 * ((gpn * 31) % slots)
        hypervisor.guest_write(vm, gpn, offset, payload)
