"""OS-side PageForge drivers (Sections 3.4, 3.6, and 4.2).

``PageForgeTreeStrategy`` runs KSM's red-black-tree searches on the
hardware: it loads the root and the next four tree levels breadth-first
into the Scan Table (31 entries), triggers the engine, and refills from
the subtree where the walk fell off until a duplicate is found or the
search genuinely misses.  Plugged into :class:`repro.ksm.KSMDaemon` as its
``search_strategy`` (with the ECC hash key as its ``checksum_fn``), the
*same* KSM algorithm runs with all three hardware-accelerated primitives.

``ArbitrarySetStrategy`` demonstrates the generality argument of
Section 4.2: every entry's Less and More point at the *next* entry, so the
candidate is compared against an arbitrary page set; the same machinery
walks an explicit page graph.
"""

from dataclasses import dataclass

from repro.common.config import KSMConfig, PageForgeConfig, ResilienceConfig
from repro.core.api import PageForgeAPI
from repro.core.engine import PageForgeEngine
from repro.core.scan_table import (
    ScanTableCorruption,
    decode_miss_sentinel,
    is_miss_sentinel,
    miss_sentinel,
)
from repro.ksm.daemon import KSMDaemon, WalkFailure, node_ppn_resolver
from repro.ksm.rbtree import WalkOutcome
from repro.mem.controller import RequestDropped, UncorrectableLineError

#: Fault classes that abort one Scan-Table batch but leave the engine
#: re-triggerable — the driver's retry path handles exactly these.
BATCH_FAULTS = (ScanTableCorruption, UncorrectableLineError, RequestDropped)


@dataclass
class DriverResilienceStats:
    """Recovery-path accounting (all zero in a fault-free run)."""

    batch_retries: int = 0
    batches_abandoned: int = 0
    table_corruptions: int = 0
    requests_dropped: int = 0
    uncorrectable_lines: int = 0
    candidates_poisoned: int = 0
    backoff_cycles: int = 0


@dataclass
class _Batch:
    """One Scan-Table load: nodes plus their index mapping."""

    nodes: list
    is_last: bool  # no out-of-batch children anywhere -> L bit


class PageForgeTreeStrategy:
    """Hardware red-black-tree walks over the Scan Table."""

    def __init__(self, api, hypervisor, resilience=None):
        self.api = api
        self.hypervisor = hypervisor
        self.engine = api.engine
        self.resilience = resilience or ResilienceConfig()
        self.fault_stats = DriverResilienceStats()
        self.now = 0.0  # simulation time for bandwidth accounting
        self.cycles_consumed = 0  # engine cycles since last drain
        self.table_refills = 0
        self._freq = api.engine.controller.dram.cpu_frequency_hz
        self._resolve_ppns = node_ppn_resolver(hypervisor)
        self._n_entries = api.table.n_entries
        entries = range(api.table.n_entries)
        self._left_misses = [miss_sentinel(i, "left") for i in entries]
        self._right_misses = [miss_sentinel(i, "right") for i in entries]

    # Batch construction ----------------------------------------------------------------

    def _batch_links(self, nodes, children):
        """A :class:`_Batch` and its Less/More links, from
        :meth:`ContentRBTree.breadth_first`'s ``(nodes, children)``.

        Every child pointer either names another in-batch index or a miss
        sentinel encoding (entry, direction), so the OS can always decode
        where the hardware walk stopped.
        """
        left_misses, right_misses = self._left_misses, self._right_misses
        n_nodes = len(nodes)
        less_links = []
        more_links = []
        is_last = True
        # breadth_first enqueues children in (left, right) order, so the
        # k-th non-None child is the node at position k: in the batch
        # while k < n_nodes.
        position = 1
        for i, (left, right) in enumerate(children):
            if left is not None and position < n_nodes:
                less_links.append(position)
                position += 1
            else:
                less_links.append(left_misses[i])
                if left is not None:
                    is_last = False
            if right is not None and position < n_nodes:
                more_links.append(position)
                position += 1
            else:
                more_links.append(right_misses[i])
                if right is not None:
                    is_last = False
        return _Batch(nodes=nodes, is_last=is_last), less_links, more_links

    def _load_batch(self, tree, start_node):
        """Breadth-first load of up to ``n_entries`` nodes (root + four
        levels of a balanced subtree: 31 entries).

        The nodes and their links come from the tree's batch cache
        (:meth:`ContentRBTree.batch`, built by :meth:`_batch_links`),
        which drops a batch when one of its nodes changes children.  The
        cache holds shapes, not PPNs: every load resolves all of its
        nodes, before the table is touched, so a stale node raises and
        leaves the table as it was.
        """
        batch, less_links, more_links = tree.batch(
            start_node, self._n_entries, self._batch_links
        )
        ppns = self._resolve_ppns(batch.nodes)
        self.api.fill_entries(list(zip(ppns, less_links, more_links)))
        self.table_refills += 1
        return batch

    def _trigger(self):
        """Run the engine and advance the local clock by its cycles."""
        cycles = self.api.trigger(self.now)
        self.cycles_consumed += cycles
        self.now += cycles / self._freq
        return cycles

    # Recovery path (skip-and-report with bounded retries) -------------------------------

    def _batch_failed(self, exc, candidate_ppn, attempts):
        """Handle one failed Scan-Table batch; returns to let the caller
        retry, or raises :class:`WalkFailure` to give up on the candidate.

        An uncorrectable ECC error on the *candidate's own* lines is not
        retried: the page's stored content cannot be trusted, so it is
        poisoned immediately (``WalkFailure(poison=True)``).  Everything
        else — corruption of the Scan-Table SRAM, dropped requests,
        uncorrectable lines on tree pages — is transient from the OS's
        point of view and is retried with exponential backoff, up to
        ``resilience.max_batch_retries`` times.
        """
        stats = self.fault_stats
        if isinstance(exc, ScanTableCorruption):
            stats.table_corruptions += 1
        elif isinstance(exc, RequestDropped):
            stats.requests_dropped += 1
        elif isinstance(exc, UncorrectableLineError):
            stats.uncorrectable_lines += 1
        # The aborted walk may leave reads in flight; drop them so the
        # retry starts from a clean request buffer.
        self.engine.controller.flush_pending()
        if (
            isinstance(exc, UncorrectableLineError)
            and exc.ppn == candidate_ppn
        ):
            stats.candidates_poisoned += 1
            raise WalkFailure(
                f"candidate PPN {candidate_ppn} has an uncorrectable line",
                poison=True, cause=exc,
            ) from exc
        if attempts > self.resilience.max_batch_retries:
            stats.batches_abandoned += 1
            raise WalkFailure(
                f"batch failed {attempts} times, giving up: {exc}",
                cause=exc,
            ) from exc
        stats.batch_retries += 1
        backoff = self.resilience.retry_backoff_cycles << (attempts - 1)
        stats.backoff_cycles += backoff
        self.cycles_consumed += backoff
        self.now += backoff / self._freq

    # The walk --------------------------------------------------------------------------

    def walk(self, tree, frame):
        """Search ``tree`` for ``frame``'s contents using the hardware.

        Returns a :class:`WalkOutcome` compatible with the software walk:
        comparisons/bytes reflect work done *by the hardware*, so the
        daemon can report them without charging CPU cycles.
        """
        stats = self.engine.stats
        comps_before = stats.page_comparisons
        pairs_before = stats.line_pairs_compared

        candidate_ppn = frame.ppn
        pfe = self.api.table.pfe
        same_candidate = pfe.valid and pfe.ppn == candidate_ppn

        if len(tree) == 0:
            # Nothing to compare, but the hash key must still be produced
            # (stable-tree search generates it in the background).
            self._forced_hash_scan(candidate_ppn)
            return WalkOutcome(
                match=None, parent=None, direction="root",
                comparisons=0, bytes_compared=0,
            )

        start = tree.root
        first_trigger = True
        attempts = 0
        while True:
            try:
                batch = self._load_batch(tree, start)
                if first_trigger and not same_candidate:
                    self.api.insert_PFE(
                        candidate_ppn, last_refill=batch.is_last, ptr=0
                    )
                else:
                    self.api.update_PFE(last_refill=batch.is_last, ptr=0)
                first_trigger = False
                self._trigger()
                info = self.api.get_PFE_info()
                if not info.scanned:
                    raise ScanTableCorruption(
                        "engine returned without Scanned set"
                    )
                if not info.duplicate and not is_miss_sentinel(info.ptr):
                    # A fault steered Ptr into dead table space; the OS
                    # cannot decode where the walk stopped.
                    raise ScanTableCorruption(
                        f"walk stopped at unexpected Ptr {info.ptr}",
                        ptr=info.ptr,
                    )
            except BATCH_FAULTS as exc:
                attempts += 1
                self._batch_failed(exc, candidate_ppn, attempts)
                continue  # re-arm the same batch
            attempts = 0

            comparisons = stats.page_comparisons - comps_before
            bytes_compared = (
                stats.line_pairs_compared - pairs_before
            ) * 64

            if info.duplicate:
                match = batch.nodes[info.ptr]
                return WalkOutcome(
                    match=match, parent=None, direction="root",
                    comparisons=comparisons, bytes_compared=bytes_compared,
                )

            entry_index, direction = decode_miss_sentinel(info.ptr)
            stopped_at = batch.nodes[entry_index]
            left, right = tree.children(stopped_at)
            child = left if direction == "left" else right
            if child is None:
                # Genuine miss: insertion point is (stopped_at, direction).
                return WalkOutcome(
                    match=None, parent=stopped_at, direction=direction,
                    comparisons=comparisons, bytes_compared=bytes_compared,
                )
            start = child  # refill from the out-of-batch subtree

    # Hash keys ------------------------------------------------------------------------

    def _forced_hash_scan(self, candidate_ppn):
        """Empty-table scan with Last-Refill, retried on batch faults.

        The hash-key fill reads touch only the candidate's own lines, so
        an uncorrectable error here always poisons (via _batch_failed).
        """
        attempts = 0
        while True:
            try:
                self.api.clear_entries()
                pfe = self.api.table.pfe
                if pfe.valid and pfe.ppn == candidate_ppn:
                    self.api.update_PFE(last_refill=True, ptr=0)
                else:
                    self.api.insert_PFE(
                        candidate_ppn, last_refill=True, ptr=0
                    )
                self._trigger()
                return
            except BATCH_FAULTS as exc:
                attempts += 1
                self._batch_failed(exc, candidate_ppn, attempts)

    def checksum(self, frame):
        """The candidate's ECC hash key, as produced by the hardware.

        The key is assembled during the stable-tree walk; if no walk has
        run for this frame yet (e.g. checksum queried standalone), a
        trivial empty-table scan with Last-Refill forces its generation.
        """
        pfe = self.api.table.pfe
        if not (pfe.valid and pfe.ppn == frame.ppn and pfe.hash_ready):
            self._forced_hash_scan(frame.ppn)
        info = self.api.get_PFE_info()
        if not info.hash_ready:
            raise RuntimeError("hash key not ready after forced completion")
        return info.hash_key

    def drain_cycles(self):
        """Engine cycles consumed since the last drain (for the sim)."""
        cycles = self.cycles_consumed
        self.cycles_consumed = 0
        return cycles


class ArbitrarySetStrategy:
    """Section 4.2: compare a candidate against an arbitrary page set."""

    def __init__(self, api):
        self.api = api

    def scan_set(self, candidate_ppn, ppns, time_seconds=0.0):
        """Compare ``candidate_ppn`` against ``ppns`` in order.

        Returns the first matching PPN, or None.  Each entry's Less and
        More both point at the next entry, so all pages are visited
        regardless of comparison outcomes; batches of table size chain
        via refills.
        """
        capacity = self.api.table.n_entries
        ppns = list(ppns)
        first = True
        for batch_start in range(0, len(ppns), capacity):
            batch = ppns[batch_start : batch_start + capacity]
            is_last = batch_start + capacity >= len(ppns)
            rows = []
            for i, ppn in enumerate(batch):
                nxt = i + 1 if i + 1 < len(batch) else miss_sentinel(i, "right")
                rows.append((ppn, nxt, nxt))
            self.api.fill_entries(rows)
            if first:
                self.api.insert_PFE(candidate_ppn, last_refill=is_last, ptr=0)
                first = False
            else:
                self.api.update_PFE(last_refill=is_last, ptr=0)
            self.api.trigger(time_seconds)
            info = self.api.get_PFE_info()
            if info.duplicate:
                return batch[info.ptr]
        return None

    def scan_graph(self, candidate_ppn, graph, start, time_seconds=0.0,
                   max_steps=10_000):
        """Walk an explicit page graph (Section 4.2's generality case).

        ``graph`` maps each node id to ``(ppn, less_target, more_target)``
        where targets are node ids or None.  The hardware follows Less on
        "candidate smaller" and More on "candidate larger", one batch per
        step window.  Returns the node id whose page matched, or None.
        """
        current = start
        first = True
        steps = 0
        while current is not None and steps < max_steps:
            # Load a single-entry batch for the current graph node; the
            # Less/More sentinels tell us which way the hardware went.
            ppn, less_target, more_target = graph[current]
            self.api.fill_entries(
                [(ppn, miss_sentinel(0, "left"), miss_sentinel(0, "right"))]
            )
            if first:
                self.api.insert_PFE(candidate_ppn, last_refill=False, ptr=0)
                first = False
            else:
                self.api.update_PFE(last_refill=False, ptr=0)
            self.api.trigger(time_seconds)
            info = self.api.get_PFE_info()
            if info.duplicate:
                return current
            _idx, direction = decode_miss_sentinel(info.ptr)
            current = less_target if direction == "left" else more_target
            steps += 1
        return None


class PageForgeMergeDriver:
    """Top-level driver: KSM's algorithm on PageForge hardware.

    Owns the engine + API + tree strategy and a :class:`KSMDaemon` wired
    to them.  ``scan_pages``/``run_to_steady_state`` mirror the daemon's
    interface; ``drain_engine_cycles`` exposes hardware time to the
    simulator.
    """

    def __init__(self, hypervisor, controller, bus=None, ksm_config=None,
                 pf_config=None, line_sampling=1, resilience=None):
        self.config = pf_config or PageForgeConfig()
        self.engine = PageForgeEngine(controller, bus=bus, config=self.config,
                                      line_sampling=line_sampling)
        self.api = PageForgeAPI(self.engine)
        self.strategy = PageForgeTreeStrategy(
            self.api, hypervisor, resilience=resilience
        )
        self.daemon = KSMDaemon(
            hypervisor,
            config=ksm_config or KSMConfig(),
            search_strategy=self.strategy,
            checksum_fn=self.strategy.checksum,
            checksum_bytes=64 * len(self.config.ecc_hash_line_offsets),
        )
        self.backend = "hardware"

    @property
    def stats(self):
        return self.daemon.stats

    @property
    def hw_stats(self):
        return self.engine.stats

    @property
    def fault_stats(self):
        return self.strategy.fault_stats

    # Graceful degradation --------------------------------------------------------------

    def set_backend(self, backend):
        """Switch the daemon between PageForge and software KSM.

        Called by the degradation governor when the hardware fault rate
        crosses its thresholds.  "software" unplugs the strategy hooks so
        the *same* daemon runs pure KSM (jhash2 checksums, CPU tree
        walks); "hardware" plugs them back.  Stored checksums keep their
        old keyspace across a switch, so the first pass after switching
        sees spurious mismatches — one pass of lost merges, no
        correctness impact.
        """
        if backend == self.backend:
            return
        daemon = self.daemon
        if backend == "software":
            daemon.search_strategy = None
            daemon.checksum_fn = daemon._default_checksum
            daemon.checksum_bytes_cost = daemon.config.hash_bytes
        elif backend == "hardware":
            daemon.search_strategy = self.strategy
            daemon.checksum_fn = self.strategy.checksum
            daemon.checksum_bytes_cost = 64 * len(
                self.config.ecc_hash_line_offsets
            )
        else:
            raise ValueError(f"unknown backend: {backend!r}")
        self.backend = backend

    def fault_observations(self):
        """Cumulative ``(observable_fault_events, lines_fetched)``.

        Events are what a real OS can see — corrected-ECC telemetry from
        the controller plus the driver's own failure counters; silent
        corruption is by definition absent.  The governor differences
        successive snapshots to estimate a per-line fault rate.
        """
        ecc_stats = self.engine.controller.ecc.stats
        fs = self.strategy.fault_stats
        events = (
            ecc_stats.words_corrected
            + fs.table_corruptions
            + fs.requests_dropped
            + fs.uncorrectable_lines
        )
        return events, self.engine.stats.lines_fetched

    def scan_pages(self, n_pages=None, now=0.0):
        """One work interval at simulation time ``now``."""
        self.strategy.now = now
        return self.daemon.scan_pages(n_pages)

    def run_to_steady_state(self, max_passes=10, min_passes=2):
        return self.daemon.run_to_steady_state(
            max_passes=max_passes, min_passes=min_passes
        )

    def drain_engine_cycles(self):
        return self.strategy.drain_cycles()
