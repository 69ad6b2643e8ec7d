"""RedHat's Kernel Same-page Merging daemon — Algorithm 1, faithfully.

The daemon runs in passes over every ``MADV_MERGEABLE`` page.  For each
candidate it (1) searches the stable tree and merges on a hit; otherwise
(2) re-computes the 1 KB jhash2 checksum and drops the page if it changed
since the previous pass; otherwise (3) searches the unstable tree, merging
on a hit (the merged page then moves, CoW-protected, into the stable tree)
or inserting the candidate on a miss.  The unstable tree is destroyed at
the end of every pass.

Work quantities (bytes compared, bytes hashed, pages scanned) are recorded
per interval so the timing model can charge the daemon's CPU time and
cache pollution to the core it currently occupies (Table 4).
"""

from collections import deque, namedtuple
from dataclasses import dataclass, fields

import numpy as np

from repro.common.config import KSMConfig
from repro.ksm.jhash import KSM_CHECKSUM_INITVAL, jhash2, jhash2_batch
from repro.ksm.rbtree import ContentRBTree, RBNode
from repro.mem.frame import write_epoch
from repro.virt.hypervisor import MergeRollback


class StaleNodeError(Exception):
    """A tree node whose backing page vanished or was remapped."""


class WalkFailure(Exception):
    """A hardware-backed search gave up on the current candidate.

    Raised by a search strategy or hardware checksum function (see
    ``repro.core.driver``) after its bounded retries are exhausted —
    skip-and-report semantics: the daemon drops the candidate for this
    pass and keeps scanning.  ``poison=True`` means the failure was a
    detected-uncorrectable ECC error on the *candidate's own* lines:
    the page's stored content is untrustworthy, so the daemon retires
    it from merging entirely (page-offline semantics).
    """

    def __init__(self, message, poison=False, cause=None):
        super().__init__(message)
        self.poison = poison
        self.cause = cause


def _skip_failed(failure, mapping, stats):
    """Count a candidate skipped after a :class:`WalkFailure`.

    A poisoning failure (uncorrectable ECC on the candidate's own lines)
    also retires the page from merging for good (page-offline
    semantics).
    """
    stats.walk_failures += 1
    if failure.poison:
        mapping.mergeable = False
        stats.candidates_poisoned += 1


@dataclass
class KSMWorkStats:
    """Work done by the daemon (one interval, or cumulative)."""

    pages_scanned: int = 0
    stable_matches: int = 0
    unstable_matches: int = 0
    merges: int = 0
    merge_rollbacks: int = 0
    unstable_inserts: int = 0
    pages_changed: int = 0
    first_seen: int = 0
    checksums_computed: int = 0
    checksum_bytes: int = 0
    checksum_matches: int = 0
    checksum_mismatches: int = 0
    comparisons: int = 0
    bytes_compared: int = 0
    merge_verify_bytes: int = 0
    passes_completed: int = 0
    stale_nodes_pruned: int = 0
    # Resilience accounting (only non-zero under fault injection).
    walk_failures: int = 0
    candidates_poisoned: int = 0

    def accumulate(self, other):
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def total_bytes_touched(self):
        """All page bytes streamed through the core's caches."""
        # Comparisons read both pages; checksums read one.
        return 2 * self.bytes_compared + self.checksum_bytes


@dataclass
class KSMPassStats:
    """Summary of one complete pass over the mergeable set."""

    pass_index: int
    candidates: int
    merges: int
    footprint_pages: int


class _NullCostSink:
    """Cost sink that ignores everything (pure functional runs)."""

    def on_walk(self, candidate_ppn, outcome):
        pass

    def on_hash_bytes(self, ppn, n_bytes):
        pass

    def on_merge_verify(self, ppn_a, ppn_b, n_bytes):
        pass


#: One scan-queue entry.  A namedtuple, not a dataclass: pass queues hold
#: one of these per mergeable page per pass, so construction cost shows up
#: directly in scan throughput.
_Candidate = namedtuple("_Candidate", ("vm_id", "gpn"))


def node_ppn_resolver(hypervisor):
    """A function mapping a list of tree nodes to their pages' current
    PPNs, in order.

    It restates the staleness rule of :meth:`KSMDaemon._stable_key_fn`
    and :meth:`KSMDaemon._unstable_key_fn` and raises
    :class:`StaleNodeError` at the first node, in order, whose
    ``node.key()`` would raise: a stable PPN no longer allocated, a
    destroyed VM, an unmapped GPN, or a mapping turned CoW.  It never
    builds the pages' bytes, so PageForge's Scan-Table loads and the KSM
    cost sink's walk paths pay one dict lookup or three per node, in one
    loop per list.
    """
    vms_get = hypervisor.vms.get
    frames = hypervisor.memory._frames

    def resolve(nodes):
        ppns = []
        append = ppns.append
        for node in nodes:
            payload = node.payload
            kind = payload[0]
            if kind == "stable":
                ppn = payload[1]
                if ppn not in frames:
                    raise StaleNodeError(f"stable PPN {ppn} freed")
                append(ppn)
            elif kind == "unstable":
                _kind, vm_id, gpn = payload
                vm = vms_get(vm_id)
                if vm is None:
                    raise StaleNodeError(f"VM{vm_id} destroyed")
                mapping = vm._table.get(gpn)
                if mapping is None:
                    raise StaleNodeError(f"VM{vm_id} GPN {gpn} unmapped")
                if mapping.cow:
                    raise StaleNodeError(
                        f"VM{vm_id} GPN {gpn} became stable"
                    )
                append(mapping.ppn)
            else:
                raise ValueError(f"unknown node payload: {payload!r}")
        return ppns

    return resolve


class KSMDaemon:
    """The KSM kernel thread (one per system, as in Linux)."""

    def __init__(self, hypervisor, config=None, cost_sink=None,
                 search_strategy=None, checksum_fn=None, checksum_bytes=None):
        self.hypervisor = hypervisor
        self.config = config or KSMConfig()
        self.cost_sink = cost_sink or _NullCostSink()
        # Strategy hooks: PageForge substitutes hardware tree walks and
        # ECC-based hash keys while reusing this exact algorithm
        # (Section 3.4).  None = software (jhash2 over 1 KB).
        self.search_strategy = search_strategy
        self.checksum_fn = checksum_fn or self._default_checksum
        self.checksum_bytes_cost = (
            checksum_bytes if checksum_bytes is not None
            else self.config.hash_bytes
        )
        self.stable_tree = ContentRBTree("stable")
        self.unstable_tree = ContentRBTree("unstable")
        self.stats = KSMWorkStats()
        self.pass_history = []
        self._checksums = {}
        self._pass_queue = deque()
        self._prime_epoch = -1  # frame-write epoch at the last prime sweep
        self._pass_index = 0
        self.total_merges = 0
        self._pass_merges_at_start = 0
        # Optional verification hook (repro.verify.invariants): called
        # as hook(self) after every scan interval, when tree and frame
        # state is quiescent and safe to traverse.
        self.audit_hook = None
        self.hints_accepted = 0

    # Checksums -------------------------------------------------------------------

    def _default_checksum(self, frame):
        """Software KSM checksum: jhash2 over the page's first 1 KB.

        Memoized on the frame's content version, so unchanged pages cost
        a tuple compare per pass instead of a hash.  Identical values to
        ``page_checksum(frame.data, n_bytes=config.hash_bytes)``.
        """
        n_bytes = self.config.hash_bytes
        params = ("jhash", n_bytes, KSM_CHECKSUM_INITVAL)
        memo = frame._checksum_memo
        if memo is not None and memo[0] == params:
            return memo[1]
        window = np.frombuffer(
            frame.content_bytes, dtype=np.uint32, count=n_bytes // 4
        )
        value = jhash2(window, KSM_CHECKSUM_INITVAL)
        frame.seed_checksum(params, value)
        return value

    def _prime_checksums(self, queue):
        """Batch-hash every un-memoized candidate frame in one sweep.

        jhash2 is sequential within a page but independent across pages;
        ``jhash2_batch`` advances all pending rows in lockstep, replacing
        N Python hashing loops with one numpy loop.  Seeds the same
        per-frame memo ``_default_checksum`` reads, with bit-identical
        values — purely a throughput optimisation.
        """
        n_bytes = self.config.hash_bytes
        params = ("jhash", n_bytes, KSM_CHECKSUM_INITVAL)
        hyp = self.hypervisor
        frames = []
        seen = set()
        for vm_id, gpn in queue:
            vm = hyp.vms.get(vm_id)
            if vm is None:
                continue
            mapping = vm.lookup(gpn)
            if mapping is None or not mapping.mergeable or mapping.cow:
                continue
            frame = hyp.memory.frame(mapping.ppn)
            memo = frame._checksum_memo
            if frame.ppn in seen or (memo is not None and memo[0] == params):
                continue
            seen.add(frame.ppn)
            frames.append(frame)
        if len(frames) < 8:
            return  # scalar hashing is cheaper than batch setup
        words = np.empty((len(frames), n_bytes // 4), dtype=np.uint32)
        for i, frame in enumerate(frames):
            words[i] = np.frombuffer(
                frame.content_bytes, dtype=np.uint32, count=n_bytes // 4
            )
        values = jhash2_batch(words, KSM_CHECKSUM_INITVAL)
        for frame, value in zip(frames, values):
            frame.seed_checksum(params, int(value))

    # Node construction -----------------------------------------------------------

    def _stable_key_fn(self, ppn):
        # Bind the frame table itself: the closure runs once per tree
        # node per walk, so every attribute hop it avoids is paid back
        # millions of times over a long scan.
        frames = self.hypervisor.memory._frames

        def key():
            try:
                return frames[ppn].content_bytes
            except KeyError:
                raise StaleNodeError(f"stable PPN {ppn} freed") from None

        return key

    def _unstable_key_fn(self, vm_id, gpn):
        vms_get = self.hypervisor.vms.get
        frames = self.hypervisor.memory._frames

        def key():
            vm = vms_get(vm_id)
            if vm is None:
                raise StaleNodeError(f"VM{vm_id} destroyed")
            mapping = vm._table.get(gpn)
            if mapping is None:
                raise StaleNodeError(f"VM{vm_id} GPN {gpn} unmapped")
            if mapping.cow:
                # Page got merged since insertion; node is stale.
                raise StaleNodeError(f"VM{vm_id} GPN {gpn} became stable")
            return frames[mapping.ppn].content_bytes

        return key

    # Pass management ------------------------------------------------------------

    def _build_pass_queue(self):
        queue = deque()
        for vm in self.hypervisor.vms.values():
            for mapping in vm.mergeable_mappings():
                queue.append(_Candidate(vm.vm_id, mapping.gpn))
        if self.checksum_fn == self._default_checksum:
            # Software-KSM checksums can be produced for the whole pass in
            # one vectorised sweep; hardware backends generate keys as a
            # side effect of their own walks, so priming would be wasted.
            self._prime_checksums(queue)
            self._prime_epoch = write_epoch()
        return queue

    def _count_candidates(self):
        """Mergeable-page population, without building (or priming) a queue."""
        return sum(
            1
            for vm in self.hypervisor.vms.values()
            for _ in vm.mergeable_mappings()
        )

    def _end_pass(self):
        self.pass_history.append(
            KSMPassStats(
                pass_index=self._pass_index,
                candidates=self._count_candidates(),
                merges=self.total_merges - self._pass_merges_at_start,
                footprint_pages=self.hypervisor.footprint_pages(),
            )
        )
        self.unstable_tree.reset()
        self._pass_index += 1
        self._pass_merges_at_start = self.total_merges

    # User-guided merge hints -------------------------------------------------------

    def enqueue_hints(self, hints):
        """Jump hinted pages to the front of the scan queue, pre-keyed.

        Each accepted ``(vm_id, gpn)`` is prepended to the current pass
        queue with its checksum recorded as if a previous pass had
        already seen the page unchanged, so the stability gate
        (Algorithm 1 line 22) passes on first scan and a hinted
        duplicate merges in one scan instead of two passes.  Unmapped,
        unmergeable, and already-CoW pages are rejected; the guest only
        *suggests*, the daemon still verifies content before merging.

        Returns the number of hints accepted.
        """
        accepted = 0
        for vm_id, gpn in reversed(list(hints)):
            vm = self.hypervisor.vms.get(vm_id)
            if vm is None:
                continue
            mapping = vm.lookup(gpn)
            if mapping is None or not mapping.mergeable or mapping.cow:
                continue
            candidate = _Candidate(vm_id, gpn)
            frame = self.hypervisor.memory.frame(mapping.ppn)
            try:
                checksum = self.checksum_fn(frame)
            except WalkFailure as failure:
                # A hardware key gave up on the page: reject the hint.
                _skip_failed(failure, mapping, self.stats)
                continue
            self._checksums[candidate] = checksum
            # reversed() above makes repeated appendleft preserve the
            # caller's hint order at the queue front.
            self._pass_queue.appendleft(candidate)
            accepted += 1
        self.hints_accepted += accepted
        return accepted

    # VM teardown -------------------------------------------------------------------

    def forget_vm(self, vm_id):
        """Drop a destroyed VM: its checksums, its queued candidates,
        and tree nodes whose backing frame died with it.  Stats are
        history, not state, and stay."""
        self._checksums = {
            key: value for key, value in self._checksums.items()
            if key[0] != vm_id
        }
        self._pass_queue = type(self._pass_queue)(
            c for c in self._pass_queue if c.vm_id != vm_id
        )
        self._prune_stale(self.stable_tree)
        self._prune_stale(self.unstable_tree)

    # Tree search with stale pruning ------------------------------------------------

    def _walk_pruning(self, tree, frame, interval):
        """Walk a tree, pruning nodes whose backing page went stale."""
        while True:
            try:
                if self.search_strategy is not None:
                    outcome = self.search_strategy.walk(tree, frame)
                else:
                    # Only cost models read WalkOutcome.path; skip
                    # recording it under the null sink.
                    outcome = tree.walk(
                        frame.content_bytes,
                        collect_path=type(self.cost_sink)
                        is not _NullCostSink,
                    )
                interval.comparisons += outcome.comparisons
                interval.bytes_compared += outcome.bytes_compared
                return outcome
            except StaleNodeError:
                self._prune_stale(tree)
                interval.stale_nodes_pruned += 1

    def _prune_stale(self, tree):
        for node in list(tree):
            try:
                node.key()
            except StaleNodeError:
                tree.remove(node)

    # The algorithm (Algorithm 1) ---------------------------------------------------

    def scan_pages(self, n_pages=None):
        """Process up to ``pages_to_scan`` candidates (one work interval).

        Returns a :class:`KSMWorkStats` describing just this interval; the
        same quantities accumulate into ``self.stats``.
        """
        if n_pages is None:
            n_pages = self.config.pages_to_scan
        interval = KSMWorkStats()
        if (
            self._pass_queue
            and self.checksum_fn == self._default_checksum
            and self._prime_epoch != write_epoch()
        ):
            # Guest writes since the last sweep (the churner runs between
            # intervals) invalidated some memos; re-prime the remaining
            # queue in one vectorised sweep.  When no frame anywhere was
            # written, the epoch gate skips the sweep outright.
            self._prime_checksums(self._pass_queue)
            self._prime_epoch = write_epoch()
        processed = 0.0
        while processed < n_pages:
            if not self._pass_queue:
                self._pass_queue = self._build_pass_queue()
                if not self._pass_queue:
                    break  # no mergeable pages at all (Algorithm line 3)
            candidate = self._pass_queue.popleft()
            scanned_before = interval.pages_scanned
            self._process_candidate(candidate, interval)
            # Already-merged (CoW) pages are skipped almost for free and
            # barely dent the interval budget; genuinely scanned pages
            # consume one unit each.
            if interval.pages_scanned > scanned_before:
                processed += 1.0
            else:
                processed += 0.1
            if not self._pass_queue:
                self._end_pass()
                interval.passes_completed += 1
        self.stats.accumulate(interval)
        if self.audit_hook is not None:
            self.audit_hook(self)
        return interval

    def _process_candidate(self, candidate, interval):
        hyp = self.hypervisor
        vm = hyp.vms.get(candidate.vm_id)
        if vm is None:
            return
        mapping = vm._table.get(candidate.gpn)
        if mapping is None or not mapping.mergeable or mapping.cow:
            return  # unmapped, already merged (stable), or opted out
        frame = hyp.memory._frames[mapping.ppn]
        interval.pages_scanned += 1
        try:
            self._scan_candidate(vm, candidate, frame, interval)
        except WalkFailure as failure:
            # The hardware backend exhausted its retries on this
            # candidate; skip it for the pass (it will be revisited).
            _skip_failed(failure, mapping, interval)

    def _scan_candidate(self, vm, candidate, frame, interval):
        hyp = self.hypervisor
        # _Candidate is a namedtuple, so it hashes and compares like the
        # plain (vm_id, gpn) tuples a checkpoint restore produces.
        ckey = candidate

        # --- Line 7: search the stable tree.
        outcome = self._walk_pruning(self.stable_tree, frame, interval)
        self.cost_sink.on_walk(frame.ppn, outcome)
        if outcome.match is not None:
            self._merge_into_stable(vm, candidate, outcome.match, interval)
            return

        # --- Line 11: compute the per-page hash key (jhash2 over 1 KB
        # in software KSM; the ECC-based key under PageForge).
        new_hash = self.checksum_fn(frame)
        interval.checksums_computed += 1
        interval.checksum_bytes += self.checksum_bytes_cost
        self.cost_sink.on_hash_bytes(frame.ppn, self.checksum_bytes_cost)
        old_hash = self._checksums.get(ckey)
        self._checksums[ckey] = new_hash

        if old_hash is None:
            interval.first_seen += 1
            return  # first scan: drop the page (Algorithm line 22)
        if old_hash != new_hash:
            interval.checksum_mismatches += 1
            interval.pages_changed += 1
            return  # page was written; drop it
        interval.checksum_matches += 1

        # --- Line 13: search the unstable tree.
        outcome = self._walk_pruning(self.unstable_tree, frame, interval)
        self.cost_sink.on_walk(frame.ppn, outcome)
        if outcome.match is not None:
            self._merge_unstable(vm, candidate, outcome.match, interval)
        else:
            node = RBNode(
                self._unstable_key_fn(candidate.vm_id, candidate.gpn),
                payload=("unstable", candidate.vm_id, candidate.gpn),
            )
            self.unstable_tree.insert_at(outcome, node)
            interval.unstable_inserts += 1

    def _merge_into_stable(self, vm, candidate, stable_node, interval):
        """Merge the candidate with an existing stable (CoW) frame."""
        hyp = self.hypervisor
        _tag, stable_ppn = stable_node.payload
        sharers = hyp.sharers(stable_ppn)
        if not sharers:
            self.stable_tree.remove(stable_node)
            interval.stale_nodes_pruned += 1
            return
        # min(), not next(iter()): set iteration order depends on the
        # set's insertion history, which a checkpoint restore cannot
        # reproduce — the canonical winner keeps resumed runs bit-exact.
        winner_vm_id, winner_gpn = min(sharers)
        winner_vm = hyp.vms[winner_vm_id]
        candidate_ppn = vm.mapping(candidate.gpn).ppn
        try:
            # Final verified compare happens inside merge_pages.
            n_bytes = len(hyp.memory.frame(stable_ppn).data)
            interval.merge_verify_bytes += n_bytes
            self.cost_sink.on_merge_verify(stable_ppn, candidate_ppn, n_bytes)
            hyp.merge_pages(winner_vm, winner_gpn, vm, candidate.gpn)
        except MergeRollback:
            interval.merge_rollbacks += 1
            return
        interval.stable_matches += 1
        interval.merges += 1
        self.total_merges += 1

    def _merge_unstable(self, vm, candidate, match_node, interval):
        """Lines 14-17: merge with an unstable page, promote to stable."""
        hyp = self.hypervisor
        _tag, m_vm_id, m_gpn = match_node.payload
        match_vm = hyp.vms.get(m_vm_id)
        if match_vm is None or not match_vm.is_mapped(m_gpn):
            self.unstable_tree.remove(match_node)
            interval.stale_nodes_pruned += 1
            return
        match_mapping = match_vm.mapping(m_gpn)
        try:
            n_bytes = len(hyp.memory.frame(match_mapping.ppn).data)
            interval.merge_verify_bytes += n_bytes
            self.cost_sink.on_merge_verify(
                match_mapping.ppn, vm.mapping(candidate.gpn).ppn, n_bytes
            )
            merged_ppn = hyp.merge_pages(match_vm, m_gpn, vm, candidate.gpn)
        except MergeRollback:
            # Racing write: the unstable node's content is unreliable.
            self.unstable_tree.remove(match_node)
            interval.merge_rollbacks += 1
            return
        # Remove from the unstable tree, insert into the stable tree.
        self.unstable_tree.remove(match_node)
        stable_node = RBNode(
            self._stable_key_fn(merged_ppn), payload=("stable", merged_ppn)
        )
        insert_outcome = self.stable_tree.insert(stable_node)
        interval.comparisons += insert_outcome.comparisons
        interval.bytes_compared += insert_outcome.bytes_compared
        interval.unstable_matches += 1
        interval.merges += 1
        self.total_merges += 1

    # Introspection -------------------------------------------------------------

    def run_to_steady_state(self, max_passes=10, min_passes=2):
        """Run whole passes until merging stops making progress.

        Used by the memory-savings experiments (Section 5.3 runs "until
        the same-page merging algorithm reaches steady state").
        """
        last_footprint = None
        for _ in range(max_passes):
            queue_len = self._count_candidates()
            # Process at least one full pass.
            self.scan_pages(max(queue_len, 1))
            footprint = self.hypervisor.footprint_pages()
            if (
                last_footprint is not None
                and footprint == last_footprint
                and self.stats.passes_completed >= min_passes
            ):
                break
            last_footprint = footprint
        return self.hypervisor.footprint_pages()
