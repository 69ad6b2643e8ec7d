"""The host: one hypervisor, its guest images, churn, and one merge stack.

Every run's host is a :class:`FunctionalHost`.  Untimed runs drive one
directly — the Figure 7 savings and Figure 8 hash-key runs, the
crash-safe recoverable run, the differential oracle harness, the chaos
campaigns, the serverless cold-start study, VM migration between fleet
hosts, and the live merge service — and the timed
:class:`~repro.sim.system.ServerSystem` owns one and adds only the
timing.  So the capacity rule, the app lookup, image boot, churn,
backend construction, fault arming, auditor wiring, hints, the armed
chaos interval and VM landing each live here once.
"""

import hashlib

import numpy as np

from repro.common.config import KSMConfig, MachineConfig, TAILBENCH_APPS
from repro.common.rng import DeterministicRNG
from repro.common.units import PAGE_BYTES
from repro.mem import PhysicalMemory
from repro.scenarios import get_scenario
from repro.sim.backends import get_backend, offer_hints
from repro.virt import Hypervisor
from repro.workloads.memimage import WriteChurner, build_vm_images

__all__ = [
    "FunctionalHost",
    "frame_digest_counts",
    "host_capacity_bytes",
    "resolve_app",
]


def resolve_app(app):
    """A TailBench app config from its name (configs pass through)."""
    return TAILBENCH_APPS[app] if isinstance(app, str) else app


def host_capacity_bytes(pages_per_vm, n_vms):
    """Physical memory for ``n_vms`` guests: 4x head room, 64 MiB floor."""
    return max(pages_per_vm * n_vms * 4 * PAGE_BYTES, 64 << 20)


def frame_digest_counts(hypervisor):
    """Histogram of live-frame contents: blake2b-16 hex -> frame count.

    The cross-host dedup scenario exchanges these between shards: two
    hosts holding frames with equal digests hold duplicate content that
    per-host merging can never reclaim.  Digests are content-derived and
    process-stable, so the histogram is deterministic and cheap to ship
    (one small dict instead of gigabytes of pages).
    """
    counts = {}
    for frame in hypervisor.memory.frames():
        digest = hashlib.blake2b(
            frame.data.tobytes(), digest_size=16
        ).hexdigest()
        counts[digest] = counts.get(digest, 0) + 1
    return counts


class FunctionalHost:
    """One host's merging stack, on its own or under a timed system.

    ``host_id`` names the host's RNG stream.  A fleet host passes its
    integer id: stream ``fleet/host{id}``, VMs named ``h{id}-vm{i}``.  A
    single-host run passes its own stream name (``fig7/moses``,
    ``{app}/content`` for a timed system, ...) and gets VMs ``vm{i}``.

    ``backend`` is a registered merge backend (``None``: no merger).
    ``scenario`` picks the guest image profile, the churn rate and the
    merge hints.  ``churn`` starts a write churner over the images'
    churn population.  ``bus`` is the snoop bus the hypervisor
    invalidates on remap (a timed system's).

    ``fault_plan`` arms the host for chaos runs: the merger compares
    every line with the SECDED decode on (the real, injectable fetch
    path), ``injector`` realises the plan against the PageForge
    controller and engine when there are any, and ``governor`` is a
    degradation governor over the driver that picks each
    :meth:`armed_interval`'s backend (a caller that wants the hardware
    every interval sets it to ``None``).

    ``state`` (from :meth:`capture`) restores a host instead of booting
    images: the hypervisor, merger, churner, and fault machinery resume
    exactly where the captured host stood.
    """

    def __init__(self, host_id, backend="ksm", app="moses", n_vms=3,
                 pages_per_vm=120, seed=2017, pages_to_scan=4000,
                 churn=False, scenario="steady_state", fault_plan=None,
                 state=None, bus=None):
        self.host_id = host_id
        self.app = resolve_app(app)
        if isinstance(host_id, str):
            stream, vm_prefix = host_id, "vm"
        else:
            stream, vm_prefix = f"fleet/host{host_id}", f"h{host_id}-vm"
        self.rng = DeterministicRNG(seed, stream)
        self.hypervisor = Hypervisor(physical_memory=PhysicalMemory(
            host_capacity_bytes(pages_per_vm, n_vms)
        ), bus=bus)
        self.scenario = get_scenario(scenario)()
        self.churn_fraction = self.scenario.churn_fraction()
        self.images = None
        self.churner = None
        if state is None:
            profile = self.scenario.image_profile(self.app, pages_per_vm)
            self.images = build_vm_images(
                self.hypervisor, profile, n_vms, self.rng,
                name_prefix=vm_prefix,
            )
            if churn:
                self.start_churn(self.images.churn_pages)
        # Faults only matter on the real fetch path: an armed untimed
        # host compares every line, through the SECDED decode.
        machine = MachineConfig(ksm=KSMConfig(pages_to_scan=pages_to_scan))
        self.build_merge_stack(
            backend, machine, fault_plan,
            line_sampling=8 if fault_plan is None else 1,
        )
        if backend is not None and self.bundle is None:
            raise ValueError(
                f"backend {backend!r} has no functional merging stack"
            )
        if state is not None:
            self._restore(state)

    def build_merge_stack(self, backend, machine, fault_plan=None, **parts):
        """Build ``backend``'s merge stack and arm it with ``fault_plan``.

        ``machine`` (whose ``ksm.pages_to_scan`` is :meth:`scan`'s
        default) and ``parts`` go to the backend's ``build_bundle``; an
        armed stack reads with the SECDED decode on.
        """
        self.backend = backend
        self.config = machine.ksm
        self.backend_cls = None if backend is None else get_backend(backend)
        self.bundle = None if backend is None else self.backend_cls.build_bundle(
            self.hypervisor, machine, verify_ecc=fault_plan is not None,
            **parts,
        )
        self.merger = None if self.bundle is None else self.bundle.merger
        self.injector = self.governor = None
        if fault_plan is not None:
            # Lazy: repro.faults.campaign imports this module.
            from repro.faults import arm_bundle

            self.injector, self.governor = arm_bundle(self.bundle, fault_plan)
        return self.bundle

    def start_churn(self, churn_pages, fraction_per_tick=None):
        """Rewrite part of ``churn_pages`` ((vm_id, gpn) pairs) per tick.

        The fraction rewritten per tick defaults to the scenario's.
        """
        if fraction_per_tick is None:
            fraction_per_tick = self.churn_fraction
        self.churner = WriteChurner(
            self.hypervisor, churn_pages, self.rng.derive("churn"),
            fraction_per_tick=fraction_per_tick,
        )
        return self.churner

    # Checkpoint / restore ------------------------------------------------------

    def capture(self):
        """JSON-safe snapshot of every mutable piece of the host."""
        from repro.recovery import serialize as ser

        state = {"hypervisor": ser.capture_hypervisor(self.hypervisor)}
        if self.bundle is not None:
            state["merger_kind"] = self.backend
            state["merger"] = self.backend_cls.capture_functional(
                self.bundle
            )
        if self.churner is not None:
            state["churn_pages"] = [list(p) for p in self.churner.churn_pages]
            state["churner"] = ser.capture_churner(self.churner)
        if self.injector is not None:
            state["injector"] = ser.capture_injector(self.injector)
            state["governor"] = (
                ser.capture_governor(self.governor)
                if self.governor is not None else None
            )
        return state

    def _restore(self, state):
        from repro.recovery import serialize as ser

        ser.restore_hypervisor(self.hypervisor, state["hypervisor"])
        if self.bundle is not None:
            self.backend_cls.restore_functional(self.bundle, state["merger"])
        if "churner" in state:
            self.start_churn([tuple(p) for p in state["churn_pages"]])
            ser.restore_churner(self.churner, state["churner"])
        if self.injector is not None:
            ser.restore_injector(self.injector, state["injector"])
            if state["governor"] is not None and self.governor is not None:
                ser.restore_governor(self.governor, state["governor"])

    # Scanning --------------------------------------------------------------------

    def scan(self, n_pages=None):
        """One scan interval (churning first when churn is enabled)."""
        if self.churner is not None:
            self.churner.tick()
        return self.merger.scan_pages(
            self.config.pages_to_scan if n_pages is None else n_pages
        )

    def armed_interval(self):
        """One interval of a fault-armed host; returns the destroyed VM id.

        The governor (when there is one) picks the interval's backend
        and observes its fault telemetry; after the scan the injector
        may destroy a VM (its id is returned, else ``None``) and unmerge
        pages, racing the stale state the next interval starts from.
        """
        governor = self.governor
        if governor is not None:
            self.bundle.driver.set_backend(governor.plan_interval())
        if self.merger is not None:
            self.scan()
        if governor is not None:
            governor.observe(*self.bundle.driver.fault_observations())
        destroyed = self.injector.maybe_destroy_vm(self.hypervisor)
        self.injector.maybe_unmerge_pages(self.hypervisor)
        return destroyed

    def converge(self, max_passes=8):
        """Scan until the footprint stabilises (or the pass budget ends)."""
        last = None
        stable = 0
        for _ in range(max_passes * 40):
            interval = self.scan()
            if interval.pages_scanned == 0 and (
                interval.passes_completed == 0
            ):
                break
            if interval.passes_completed:
                footprint = self.footprint()
                if last is not None and footprint == last:
                    stable += 1
                else:
                    stable = 0
                last = footprint
                if stable >= 2:
                    break
        return self.footprint()

    # VM arrival ------------------------------------------------------------------

    def land(self, payload):
        """Boot a VM from a migration payload: private, mergeable pages.

        Merge state never travels — the host's own merger re-discovers
        duplicates.  Returns the new VM (the host assigns its id).
        """
        vm = self.hypervisor.create_vm(name=payload.name)
        for gpn, content, mergeable, category in payload.pages:
            self.hypervisor.populate_page(
                vm, gpn, np.frombuffer(content, dtype=np.uint8),
                category=category, mergeable=mergeable,
            )
        return vm

    # Accounting ------------------------------------------------------------------

    def footprint(self):
        return self.hypervisor.footprint_pages()

    def guest_pages(self):
        return self.hypervisor.guest_pages()

    def digests(self):
        return frame_digest_counts(self.hypervisor)

    # Verification ----------------------------------------------------------------

    def attach_auditor(self, auditor):
        """Wire an InvariantAuditor into this host's merge events."""
        return auditor.attach_bundle(self.bundle, self.hypervisor)

    def offer_hints(self):
        """Offer the scenario's merge hints: ``{"offered", "accepted", "ignored"}``."""
        hints = tuple(self.scenario.merge_hints(self.images))
        return {"offered": len(hints), **offer_hints(self.bundle, hints)}

    def audit(self, auditor):
        """Full-state audit now: frames always, trees when present."""
        daemon = self.bundle.daemon if self.bundle is not None else None
        if daemon is not None:
            auditor.on_scan_interval(daemon)
        else:
            auditor.audit_frames(self.hypervisor)
        return auditor
