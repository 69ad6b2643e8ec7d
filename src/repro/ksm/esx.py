"""ESX-style hash-bucket same-page merging (Section 7.2).

VMware's ESX Server (and IBM's Active Memory Deduplication) take a
different route from KSM's content-ordered trees: every page gets a hash
key; only pages whose keys collide are compared byte-for-byte.  There is
no unstable tree and no ordering — a candidate is checked against the
*bucket* of pages sharing its key.

This is exactly the algorithm family Section 4.2 argues PageForge can
host: the OS loads the bucket into the Scan Table with every entry's
Less and More pointing at the next entry (an arbitrary-set scan), and
uses the hardware's ECC-based key as the bucket hash.  The software
backend compares on the CPU and hashes with jhash2, like ESX would.
"""

from dataclasses import dataclass

from repro.ksm.compare import compare_pages
from repro.ksm.jhash import page_checksum
from repro.virt.hypervisor import MergeRollback


@dataclass
class ESXMergeStats:
    """Work and outcome counters for a hash-bucket merging run."""

    pages_scanned: int = 0
    hash_lookups: int = 0
    bucket_hits: int = 0
    full_comparisons: int = 0
    bytes_compared: int = 0
    false_bucket_matches: int = 0  # key collided, contents differed
    merges: int = 0
    merge_rollbacks: int = 0
    passes_completed: int = 0


class SoftwareESXBackend:
    """CPU-side hashing and comparison.

    ESX keys a page by hashing its *entire* contents (Waldspurger 2002),
    unlike KSM's 1 KB change-detection checksum — the key must
    discriminate between pages, not just detect writes, so a partial
    window would put prefix-similar pages into one giant bucket.
    """

    def __init__(self, hypervisor):
        self.hypervisor = hypervisor

    def key_for(self, frame):
        return page_checksum(frame.data, n_bytes=frame.data.size)

    def find_match(self, frame, ppns, stats):
        for ppn in ppns:
            other = self.hypervisor.memory.frame(ppn)
            sign, cost = compare_pages(frame.data, other.data)
            stats.full_comparisons += 1
            stats.bytes_compared += cost
            if sign == 0:
                return ppn
            stats.false_bucket_matches += 1
        return None


class PageForgeESXBackend:
    """Hardware backend: ECC hash keys + arbitrary-set Scan-Table scans."""

    def __init__(self, hypervisor, api):
        from repro.core.driver import ArbitrarySetStrategy

        self.hypervisor = hypervisor
        self.api = api
        self.strategy = ArbitrarySetStrategy(api)

    def key_for(self, frame):
        """The ECC-based key, produced by a Last-Refill empty scan."""
        self.api.clear_entries()
        self.api.insert_PFE(frame.ppn, last_refill=True, ptr=0)
        self.api.trigger()
        info = self.api.get_PFE_info()
        return info.hash_key

    def find_match(self, frame, ppns, stats):
        before = self.api.engine.stats.page_comparisons
        pairs_before = self.api.engine.stats.line_pairs_compared
        match = self.strategy.scan_set(frame.ppn, list(ppns))
        stats.full_comparisons += (
            self.api.engine.stats.page_comparisons - before
        )
        stats.bytes_compared += (
            self.api.engine.stats.line_pairs_compared - pairs_before
        ) * 64
        if match is None:
            stats.false_bucket_matches += len(ppns)
        return match


class ESXStyleMerger:
    """Hash-bucket same-page merging over a hypervisor's VMs."""

    def __init__(self, hypervisor, backend=None):
        self.hypervisor = hypervisor
        self.backend = backend or SoftwareESXBackend(hypervisor)
        self.stats = ESXMergeStats()
        # key -> list of stable PPNs holding that key's contents
        self._buckets = {}
        self._queue = []
        self.hints_accepted = 0

    # Bucket maintenance ----------------------------------------------------------

    def _prune_bucket(self, key):
        bucket = self._buckets.get(key, [])
        live = [
            ppn for ppn in bucket
            if self.hypervisor.memory.is_allocated(ppn)
        ]
        if live:
            self._buckets[key] = live
        else:
            self._buckets.pop(key, None)
        return live

    def _candidates(self):
        for vm in self.hypervisor.vms.values():
            for mapping in vm.mergeable_mappings():
                yield vm, mapping

    # User-guided merge hints -------------------------------------------------------

    def enqueue_hints(self, hints):
        """Prepend hinted ``(vm_id, gpn)`` pages to the scan queue.

        ESX has no stability gate, so queue position *is* the whole fast
        path: a hinted page is keyed, bucketed, and merged in the first
        scan interval instead of whenever the pass reaches it.  Unmapped,
        unmergeable, and already-CoW pages are rejected.  Returns the
        number of hints accepted.
        """
        items = []
        for vm_id, gpn in hints:
            vm = self.hypervisor.vms.get(vm_id)
            if vm is None:
                continue
            mapping = vm.lookup(gpn)
            if mapping is None or not mapping.mergeable or mapping.cow:
                continue
            items.append((vm, mapping))
        self._queue[:0] = items
        self.hints_accepted += len(items)
        return len(items)

    # VM teardown -------------------------------------------------------------------

    def forget_vm(self, vm_id):
        """Drop a destroyed VM's queued candidates and prune every
        bucket of frames that died with it."""
        self._queue = [
            (vm, mapping) for vm, mapping in self._queue
            if vm.vm_id != vm_id
        ]
        for key in list(self._buckets):
            self._prune_bucket(key)

    # One pass ---------------------------------------------------------------------

    def scan_pages(self, n_pages=1000):
        """Process up to ``n_pages`` candidates; returns interval stats."""
        interval = ESXMergeStats()
        if not self._queue:
            self._queue = list(self._candidates())
            if not self._queue:
                return interval
        processed = 0
        while self._queue and processed < n_pages:
            vm, mapping = self._queue.pop(0)
            if not vm.is_mapped(mapping.gpn) or mapping.cow:
                continue
            frame = self.hypervisor.memory.frame(mapping.ppn)
            interval.pages_scanned += 1
            processed += 1

            key = self.backend.key_for(frame)
            interval.hash_lookups += 1
            bucket = self._prune_bucket(key)
            if bucket:
                interval.bucket_hits += 1
                match_ppn = self.backend.find_match(frame, bucket, interval)
                if match_ppn is not None:
                    if self._merge_into(vm, mapping, match_ppn, interval):
                        continue
            # No (valid) match: this page becomes a bucket member.
            self._buckets.setdefault(key, []).append(mapping.ppn)
        if not self._queue:
            interval.passes_completed += 1
        self._accumulate(interval)
        return interval

    def _merge_into(self, vm, mapping, stable_ppn, interval):
        sharers = self.hypervisor.sharers(stable_ppn)
        if not sharers:
            return False
        winner_vm_id, winner_gpn = next(iter(sharers))
        winner_vm = self.hypervisor.vms[winner_vm_id]
        try:
            self.hypervisor.merge_pages(
                winner_vm, winner_gpn, vm, mapping.gpn
            )
        except MergeRollback:
            interval.merge_rollbacks += 1
            return False
        interval.merges += 1
        return True

    def _accumulate(self, interval):
        for name in vars(interval):
            setattr(self.stats, name,
                    getattr(self.stats, name) + getattr(interval, name))

    def run_to_steady_state(self, max_passes=8):
        """Full passes until the footprint stops shrinking."""
        last = None
        for _ in range(max_passes):
            self.scan_pages(n_pages=10**9)  # one whole pass
            footprint = self.hypervisor.footprint_pages()
            if footprint == last:
                break
            last = footprint
        return self.hypervisor.footprint_pages()

    @property
    def n_buckets(self):
        return len(self._buckets)
