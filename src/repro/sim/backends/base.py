"""The MergeBackend protocol: what a merging configuration must provide.

A backend builds its merging objects in one classmethod,
:meth:`MergeBackend.build_bundle`, which returns a :class:`MergerBundle`.
Both faces call it through ``FunctionalHost.build_merge_stack``
(:mod:`repro.sim.host`): an untimed host (the Figure 7 savings runner,
the crash-safe recovery runner, campaigns, the merge service) drives
the bundle directly, and a :class:`~repro.sim.system.ServerSystem` owns
a host and passes the timed pieces (its machine, home memory
controller and cache-cost sink).  ``capture_functional()`` /
``restore_functional()`` are the snapshot boundary ``recovery.serialize``
uses.

The timed face is the instance: it reads the host's bundle,
``start()`` schedules the first ``_wake`` on the event queue, and the
backend thereafter drives itself via
``ServerSystem.schedule_kernel_chunk``.  ``summarize()`` folds
backend-specific columns into the experiment's ``LatencySummary`` and
``register_metrics()`` publishes counters into the system's
:class:`~repro.sim.metrics.MetricsRegistry`.

Every question a caller asks of a merge stack is answered once over
the bundle, for both faces: :func:`offer_hints` (user-guided merge
hints), ``InvariantAuditor.attach_bundle`` (audit wiring),
``repro.faults.arm_bundle`` (fault injection), and the scanner's
``forget_vm`` (VM teardown).  A ``None`` bundle is the no-merging
baseline.

The base class implements the no-merging behaviour, so ``baseline`` is
an empty subclass and every hook is optional for new backends.
"""

from dataclasses import dataclass
from typing import Any


@dataclass
class MergerBundle:
    """The merging stack one backend builds.

    ``merger`` is the scannable front object (``scan_pages(n)`` +
    ``.stats``); ``daemon`` is the underlying KSM daemon when the
    backend has one (trees for the invariant auditor), else ``None``;
    ``driver`` is the PageForge driver (engine, controller, fault
    observations) when there is one, else ``None``.
    """

    merger: Any
    daemon: Any = None
    driver: Any = None

    @property
    def scanner(self):
        """The object holding the scan queue: it takes merge hints
        (``enqueue_hints``) and forgets destroyed VMs (``forget_vm``)."""
        return self.daemon if self.daemon is not None else self.merger


def offer_hints(bundle, hints):
    """Offer guest-known identical ``(vm_id, gpn)`` pages to a bundle.

    Returns ``{"accepted": n, "ignored": m}``.  Hints are advisory: a
    ``None`` bundle (baseline, no scanner to fast-path) ignores every
    hint and counts it, and the scanner rejects pages it cannot merge.
    """
    hints = tuple(hints)
    accepted = 0 if bundle is None else bundle.scanner.enqueue_hints(hints)
    return {"accepted": accepted, "ignored": len(hints) - accepted}


class MergeBackend:
    """One registered merging configuration (or the absence of one)."""

    #: Overwritten by the ``@register_backend`` decorator.
    name = "abstract"
    #: Whether ``recovery.runner.RecoverableRun`` can checkpoint/resume
    #: this backend (needs a daemon whose trees serialize).
    supports_recovery = False

    @classmethod
    def build_bundle(cls, hypervisor, machine, *, controller=None,
                     cost_sink=None, line_sampling=8, verify_ecc=False):
        """Build the merging objects over ``hypervisor``.

        Returns a :class:`MergerBundle`, or ``None`` for no merging.
        ``machine`` supplies the KSM, PageForge and processor settings.
        A timed host also passes the home ``controller`` and the
        ``cost_sink`` its software scans stream through; an untimed one
        leaves both ``None`` (PageForge then builds its own controller).
        ``line_sampling`` and ``verify_ecc`` set the PageForge fetch path.
        """
        return None

    # Timed face -----------------------------------------------------------------

    def __init__(self, system):
        self.system = system
        #: The host's merge stack; ``None`` means no merging machinery.
        self.bundle = system.host.bundle

    def start(self, events):
        """Schedule the first wake (no-op without merging machinery)."""
        if self.bundle is not None:
            events.schedule(0.001, self._wake)

    def _sleep_then_wake(self):
        sleep_s = self.system.machine.ksm.sleep_millisecs / 1000.0
        self.system.events.schedule_in(sleep_s, self._wake)

    def register_metrics(self, registry):
        """Publish backend counters into the system's MetricsRegistry."""
        bundle = self.bundle
        if bundle is not None and bundle.daemon is not None:
            registry.register("ksm_daemon", lambda: bundle.daemon.stats)

    def summarize(self, summary):
        """Fold backend-specific columns into a LatencySummary."""

    # Functional state ------------------------------------------------------------

    @classmethod
    def capture_functional(cls, bundle):
        """Serialise the bundle's mutable state (JSON-safe)."""
        raise ValueError(f"backend {cls.name!r} does not capture state")

    @classmethod
    def restore_functional(cls, bundle, state):
        """Restore state captured by :meth:`capture_functional`."""
        raise ValueError(f"backend {cls.name!r} does not restore state")
