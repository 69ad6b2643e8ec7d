"""The fault injector: realises a :class:`FaultPlan` against live hardware.

The injector plugs into the two hook points the model exposes:

* ``MemoryController.fault_hook`` — every DRAM line read passes through
  ``line_hook``, which may corrupt the data/code *copies* (never the
  stored frame — these are read-path faults), delay the response, or
  drop the request entirely;
* ``PageForgeEngine.walk_fault_hook`` — every Scan-Table walk step passes
  through ``walk_hook``, which may flip state in the table SRAM.

Bit flips go through the real Hamming(72,64) codec primitives, so the
downstream behaviour (corrected / detected-uncorrectable / silent) is a
property of the code, not of the injector.  Silent corruption is modelled
as damage plus a regenerated, self-consistent code — exactly the class of
error SECDED cannot see.

All randomness comes from named :class:`DeterministicRNG` streams keyed
by the plan's seed, so campaigns replay bit-for-bit.
"""

from dataclasses import dataclass, fields

import numpy as np

from repro.common.rng import DeterministicRNG
from repro.ecc.hamming import CODEWORD_BITS, encode_line, inject_error
from repro.faults.governor import DegradationGovernor
from repro.mem.controller import RequestDropped

_WORDS_PER_LINE = 8


class ProcessCrash(RuntimeError):
    """The injected fault is the death of the whole process.

    The recovery subsystem realises it: a supervised worker turns it
    into a hard exit; in-process harnesses catch it, drop the journal's
    unflushed tail and resume from the latest checkpoint.
    """


@dataclass
class FaultInjectionStats:
    """What the injector actually did (ground truth for the analysis)."""

    lines_inspected: int = 0
    single_bit_flips: int = 0
    double_bit_flips: int = 0
    silent_corruptions: int = 0
    requests_dropped: int = 0
    latency_spikes: int = 0
    walk_steps_inspected: int = 0
    table_corruptions: int = 0
    vms_destroyed: int = 0
    pages_unmerged: int = 0
    process_crashes: int = 0

    def snapshot(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class NetworkFaultStats:
    """What the chaos transport links actually did, across all links.

    Kept separate from :class:`FaultInjectionStats` on purpose: the
    recovery fingerprint folds the injector's merge-visible stats in,
    and transport faults never touch merge state — a dropped frame must
    not change the fingerprint of an otherwise identical run.
    """

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped: int = 0
    frames_duplicated: int = 0
    frames_reordered: int = 0
    partitions_started: int = 0
    partitions_healed: int = 0
    partition_frames_dropped: int = 0

    def snapshot(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultInjector:
    """Wires one :class:`FaultPlan` into a controller and an engine."""

    def __init__(self, plan):
        self.plan = plan
        self.stats = FaultInjectionStats()
        self.net_stats = NetworkFaultStats()
        self._root = DeterministicRNG(plan.seed, "faults")
        self._line_rng = self._root.derive("line")
        self._walk_rng = self._root.derive("walk")
        self._vm_rng = self._root.derive("vm")
        self._crash_rng = None
        self._controller = None
        self._engine = None

    def net_rng(self, link_name):
        """The dedicated fault stream for one replication link.

        Each link (primary -> replica-N) draws from its own named
        stream, so adding or removing a replica never perturbs the
        chaos schedule of the others.
        """
        return self._root.derive(f"net/{link_name}")

    # Attachment -----------------------------------------------------------------

    def attach(self, controller=None, engine=None):
        if controller is not None:
            controller.fault_hook = self.line_hook
            self._controller = controller
        if engine is not None:
            engine.walk_fault_hook = self.walk_hook
            self._engine = engine
        return self

    def detach(self):
        if self._controller is not None:
            self._controller.fault_hook = None
            self._controller = None
        if self._engine is not None:
            self._engine.walk_fault_hook = None
            self._engine = None

    # DRAM read path -------------------------------------------------------------

    def line_hook(self, ppn, line_index, data, code):
        """Controller hook: returns (data, code, extra_latency_cycles).

        One uniform draw per line is tested against stacked thresholds,
        so each class hits at exactly its configured marginal rate and
        at most one fault strikes a given read.
        """
        plan = self.plan
        stats = self.stats
        stats.lines_inspected += 1
        r = float(self._line_rng.random())
        threshold = plan.drop_rate
        if r < threshold:
            stats.requests_dropped += 1
            raise RequestDropped(ppn, line_index)
        threshold += plan.latency_spike_rate
        if r < threshold:
            stats.latency_spikes += 1
            return data, code, plan.latency_spike_cycles
        threshold += plan.single_bit_rate
        if r < threshold:
            stats.single_bit_flips += 1
            data, code = self._flip_bits(data, code, n_bits=1)
            return data, code, 0
        threshold += plan.double_bit_rate
        if r < threshold:
            stats.double_bit_flips += 1
            data, code = self._flip_bits(data, code, n_bits=2)
            return data, code, 0
        threshold += plan.silent_rate
        if r < threshold:
            stats.silent_corruptions += 1
            data, code = self._silent_corrupt(data)
            return data, code, 0
        return data, code, 0

    def _flip_bits(self, data, code, n_bits):
        """Flip ``n_bits`` distinct bits of one random 72-bit codeword."""
        data = np.array(data, dtype=np.uint8, copy=True)
        code = np.array(code, dtype=np.uint8, copy=True)
        word_index = int(self._line_rng.integers(0, _WORDS_PER_LINE))
        bits = set()
        while len(bits) < n_bits:
            bits.add(int(self._line_rng.integers(0, CODEWORD_BITS)))
        words = data.view(np.uint64)
        word, check = int(words[word_index]), int(code[word_index])
        for bit in sorted(bits):
            word, check = inject_error(word, check, bit)
        words[word_index] = np.uint64(word)
        code[word_index] = np.uint8(check)
        return data, code

    def _silent_corrupt(self, data):
        """Corrupt a byte and regenerate a self-consistent code.

        An inverted byte is at least four flipped bits — beyond SECDED —
        and the regenerated code matches the damaged data, so the decode
        is clean.  Only content-level checks can catch the fallout.
        """
        data = np.array(data, dtype=np.uint8, copy=True)
        index = int(self._line_rng.integers(0, data.size))
        data[index] ^= 0xFF
        return data, encode_line(data)

    # Scan-Table SRAM ------------------------------------------------------------

    def walk_hook(self, table, ptr):
        """Engine hook: maybe flip Scan-Table state under the walk."""
        stats = self.stats
        stats.walk_steps_inspected += 1
        if float(self._walk_rng.random()) >= self.plan.table_corruption_rate:
            return
        stats.table_corruptions += 1
        entry = table.entries[ptr]
        mode = int(self._walk_rng.integers(0, 3))
        if mode == 0:
            # V bit of the entry under comparison drops.
            entry.valid = False
        elif mode == 1:
            # Both pointers bend back onto the entry itself: a cycle.
            entry.less = ptr
            entry.more = ptr
        else:
            # Pointer bits rot into undecodable garbage.
            garbage = 1_000 + int(self._walk_rng.integers(0, 1_000))
            entry.less = garbage
            entry.more = garbage

    # Process death (driven per-interval by the recoverable runner) -----------------

    def set_crash_attempt(self, attempt):
        """Key the crash stream by restart attempt.

        Unlike every other stream, the crash stream must NOT be restored
        from a checkpoint: a resumed run replaying the exact pre-crash
        draws would crash at the same point forever.  Deriving by attempt
        keeps the schedule deterministic per (seed, attempt) while letting
        each restart roll fresh dice.
        """
        self._crash_rng = DeterministicRNG(
            self.plan.seed, f"faults/crash/{int(attempt)}"
        )
        return self

    def maybe_crash(self):
        """With ``process_crash_prob``, decide this interval is the
        process's last.  Returns True when the caller should die."""
        if self.plan.process_crash_prob <= 0.0 or self._crash_rng is None:
            return False
        if float(self._crash_rng.random()) >= self.plan.process_crash_prob:
            return False
        self.stats.process_crashes += 1
        return True

    # VM lifecycle churn (driven per-interval by the campaign) ----------------------

    def maybe_destroy_vm(self, hypervisor):
        """With ``vm_destroy_prob``, tear down one randomly chosen VM.

        Refuses to go below two live VMs (no merging partner left).
        Returns the destroyed vm_id or None.
        """
        if float(self._vm_rng.random()) >= self.plan.vm_destroy_prob:
            return None
        victims = [vm for _vm_id, vm in sorted(hypervisor.vms.items())]
        if len(victims) <= 2:
            return None
        vm = victims[int(self._vm_rng.integers(0, len(victims)))]
        hypervisor.destroy_vm(vm)
        self.stats.vms_destroyed += 1
        return vm.vm_id

    def maybe_unmerge_pages(self, hypervisor):
        """With ``unmerge_churn_prob``, madvise a few merged pages
        UNMERGEABLE (CoW break + retirement).  Returns pages unmerged."""
        if float(self._vm_rng.random()) >= self.plan.unmerge_churn_prob:
            return 0
        merged = [
            (vm, mapping.gpn)
            for _vm_id, vm in sorted(hypervisor.vms.items())
            for mapping in vm.mappings()
            if mapping.cow
        ]
        if not merged:
            return 0
        count = 0
        for _ in range(min(self.plan.unmerge_pages_per_event, len(merged))):
            vm, gpn = merged[int(self._vm_rng.integers(0, len(merged)))]
            if vm.is_mapped(gpn) and vm.mapping(gpn).cow:
                hypervisor.unmerge_page(vm, gpn)
                count += 1
        self.stats.pages_unmerged += count
        return count


def arm_bundle(bundle, plan):
    """Arm a merge stack with ``plan``; returns ``(injector, governor)``.

    A bundle with a PageForge driver gets the injector on its
    controller's read path and engine walk, and a degradation governor
    over the driver's resilience config.  Other bundles (and ``None``)
    read memory through the CPU, immune to the line faults: their
    injector only realises the VM-lifecycle and process chaos, and the
    governor is ``None``.
    """
    injector = FaultInjector(plan)
    driver = bundle.driver if bundle is not None else None
    if driver is None:
        return injector, None
    injector.attach(controller=driver.engine.controller, engine=driver.engine)
    return injector, DegradationGovernor(driver.strategy.resilience)
