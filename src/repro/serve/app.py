"""The application behind the front-end: one live merging world.

The data plane serves a long-lived
:class:`~repro.sim.host.FunctionalHost` — the same untimed merge
stack the fleet and migration tiers drive — through three request
classes:

* **workload scan** (heavy): one churn tick plus a bounded scan chunk,
  the op whose cost is dominated by merge/CoW work (this is what makes
  the service-time distribution bimodal);
* **workload read** (light): a guest page read;
* **admin ops**: spawn a VM, tune the scan rate, switch the merge
  backend live (capture -> rebuild -> land -> re-merge, the migration
  pattern applied in place).

Every op runs under one engine lock (the simulator is single-threaded
state), gated by the circuit breaker and the chaos injector, and
bounded by the request's deadline — queueing for the engine counts
against the budget, so a request that waited too long is cancelled
instead of executed.
"""

import threading
from dataclasses import replace

from repro.common.units import PAGE_BYTES
from repro.fleet.migration import capture_vm
from repro.serve.breaker import CircuitBreaker
from repro.serve.chaos import ServeChaos
from repro.serve.deadline import DeadlineExceeded
from repro.sim.backends import available_backends
from repro.sim.host import FunctionalHost
from repro.sim.metrics import MetricsRegistry, summarize

__all__ = [
    "MergeServiceApp",
]

#: Percentiles the live latency provider publishes.
LATENCY_PERCENTILES = (50, 90, 95, 99, 99.9)


class MergeServiceApp:
    """Owns the simulated world and executes ops against it."""

    def __init__(self, config, auditor=None, clock=None):
        self.config = config
        self.auditor = auditor
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            cooldown_s=config.breaker_cooldown_s,
            halfopen_probes=config.breaker_halfopen_probes,
            **({"clock": clock} if clock is not None else {}),
        )
        self.chaos = ServeChaos(config.chaos)
        self.scan_rate = config.scan_rate
        self.spawned_vms = 0
        self.backend_switches = 0
        self._engine = threading.Lock()
        self._generation = 0
        self._latencies = []
        self._latency_lock = threading.Lock()
        self.host = self._build_host(config.backend, config.n_vms)
        self.metrics = MetricsRegistry()
        self.metrics.register("breaker", self.breaker.metrics)
        self.metrics.register("chaos", self.chaos.metrics)
        self.metrics.register("host", self._host_metrics)
        self.metrics.register("latency", self._latency_metrics)

    # World construction ---------------------------------------------------------

    def _build_host(self, backend, n_vms):
        cfg = self.config
        host = FunctionalHost(
            self._generation, backend=backend, app=cfg.app,
            n_vms=n_vms, pages_per_vm=cfg.pages_per_vm,
            seed=cfg.seed, pages_to_scan=cfg.scan_rate,
            churn=n_vms > 0,
        )
        self._generation += 1
        if self.auditor is not None:
            host.attach_auditor(self.auditor)
        return host

    # Execution under breaker + chaos + deadline ---------------------------------

    def execute(self, op_name, deadline, fn):
        """Run ``fn`` on the engine within ``deadline``.

        Raises :class:`DeadlineExceeded` if the budget runs out while
        queueing, :class:`BreakerOpen` if the breaker refuses, or
        whatever the op (or the chaos injector) raises — a raised op is
        a breaker failure, a completed one a success.
        """
        remaining = deadline.remaining()
        if remaining <= 0:
            raise DeadlineExceeded("expired before queueing")
        if not self._engine.acquire(timeout=remaining):
            raise DeadlineExceeded("deadline exceeded in the engine queue")
        try:
            deadline.check("engine acquire")
            self.breaker.acquire()  # BreakerOpen propagates un-recorded
            try:
                self.chaos.before_op(op_name)
                result = fn()
            except Exception:
                self.breaker.record_failure()
                raise
            if deadline.expired:
                # The op ran but overran the request's budget (e.g. a
                # chaos stall): a backend too slow to meet deadlines is
                # failing, and consecutive overruns must trip the
                # breaker just like errors do.  The result still
                # returns — the server converts it to 504.
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
            return result
        finally:
            self._engine.release()

    def breaker_retry_after(self):
        """Fast-path peek: seconds to wait when the breaker is open.

        Lets the admission layer shed instantly during the cooldown
        without consuming a half-open probe slot; returns ``None`` when
        ops may flow (closed, half-open, or cooldown elapsed).
        """
        if self.breaker.state != CircuitBreaker.OPEN:
            return None
        waited = self.breaker._clock() - self.breaker._opened_at
        if waited >= self.breaker.cooldown_s:
            return None
        return self.breaker.cooldown_s - waited

    # Data-plane ops -------------------------------------------------------------

    def op_workload(self, deadline, kind="scan", pages=None):
        if kind == "scan":
            return self.execute(
                "workload/scan", deadline,
                lambda: self._do_scan(pages),
            )
        if kind == "read":
            return self.execute(
                "workload/read", deadline, self._do_read,
            )
        raise ValueError(f"unknown workload kind {kind!r}")

    def _do_scan(self, pages):
        host = self.host
        if host.churner is not None:
            host.churner.tick()
        n = int(pages) if pages else self.scan_rate
        interval = host.merger.scan_pages(max(1, min(n, 100_000)))
        return {
            "kind": "scan",
            "pages_scanned": interval.pages_scanned,
            "passes_completed": interval.passes_completed,
            "merges": host.hypervisor.stats.merges,
            "cow_breaks": host.hypervisor.stats.cow_breaks,
            "footprint_pages": host.footprint(),
            "guest_pages": host.guest_pages(),
        }

    def _do_read(self):
        host = self.host
        vms = list(host.hypervisor.vms.values())
        if not vms:
            raise RuntimeError("no VMs to read from")
        vm = vms[0]
        mapping = next(iter(vm.mappings()))
        data = host.hypervisor.guest_read(vm, mapping.gpn, 0, 64)
        return {
            "kind": "read",
            "vm_id": vm.vm_id,
            "gpn": mapping.gpn,
            "head": bytes(data[:8]).hex(),
        }

    # Admin ops ------------------------------------------------------------------

    def op_spawn_vm(self, deadline, pages=None):
        return self.execute(
            "admin/spawn_vm", deadline, lambda: self._do_spawn(pages)
        )

    def _do_spawn(self, pages):
        cfg = self.config
        n_pages = int(pages) if pages else cfg.pages_per_vm
        host = self.host
        rng = host.rng.derive(f"spawn/{self.spawned_vms}")
        vm = host.hypervisor.create_vm(name=f"spawned{self.spawned_vms}")
        for gpn in range(max(1, min(n_pages, 10_000))):
            host.hypervisor.populate_page(
                vm, gpn, rng.bytes_array(PAGE_BYTES), mergeable=True,
            )
        self.spawned_vms += 1
        return {
            "vm_id": vm.vm_id,
            "pages": n_pages,
            "guest_pages": host.guest_pages(),
        }

    def op_set_scan_rate(self, deadline, pages_to_scan):
        def do():
            rate = int(pages_to_scan)
            if not 1 <= rate <= 1_000_000:
                raise ValueError(f"scan rate out of range: {rate}")
            self.scan_rate = rate
            self.host.config = replace(
                self.host.config, pages_to_scan=rate
            )
            return {"scan_rate": rate}
        return self.execute("admin/scan_rate", deadline, do)

    def op_switch_backend(self, deadline, backend):
        if backend not in available_backends():
            raise ValueError(
                f"unknown merge backend {backend!r}; registered: "
                + ", ".join(available_backends())
            )
        return self.execute(
            "admin/switch_backend", deadline,
            lambda: self._do_switch(backend),
        )

    def _do_switch(self, backend):
        """Live backend switch: the migration pattern, applied in place.

        Capture every VM's guest-visible pages, build a fresh stack
        under the new backend, land the pages as private mergeable
        memory, and let the new merger re-discover duplicates — merge
        state never travels between backends.
        """
        old = self.host
        payloads = [
            capture_vm(old.hypervisor, vm_id)
            for vm_id in sorted(old.hypervisor.vms)
        ]
        old_churn = (
            list(old.churner.churn_pages) if old.churner is not None
            else []
        )
        new = self._build_host(backend, n_vms=0)
        vm_id_map = {
            payload.source_vm_id: new.land(payload).vm_id
            for payload in payloads
        }
        churn_pages = [
            (vm_id_map[vm_id], gpn)
            for vm_id, gpn in old_churn if vm_id in vm_id_map
        ]
        if churn_pages:
            new.start_churn(churn_pages)
        self.host = new
        self.backend_switches += 1
        if self.auditor is not None:
            new.audit(self.auditor)
        return {
            "backend": backend,
            "vms_moved": len(payloads),
            "pages_moved": sum(p.n_pages for p in payloads),
            "guest_pages": new.guest_pages(),
        }

    # Telemetry ------------------------------------------------------------------

    def record_latency(self, latency_s):
        with self._latency_lock:
            self._latencies.append(float(latency_s))
            if len(self._latencies) > 10_000:
                del self._latencies[:5_000]

    def _latency_metrics(self):
        with self._latency_lock:
            samples = list(self._latencies)
        return summarize(samples, percentiles=LATENCY_PERCENTILES)

    def _host_metrics(self):
        host = self.host
        return {
            "backend": host.backend,
            "n_vms": len(host.hypervisor.vms),
            "guest_pages": host.guest_pages(),
            "footprint_pages": host.footprint(),
            "merges": host.hypervisor.stats.merges,
            "cow_breaks": host.hypervisor.stats.cow_breaks,
            "scan_rate": self.scan_rate,
            "spawned_vms": self.spawned_vms,
            "backend_switches": self.backend_switches,
            "auditor_clean": (
                self.auditor.clean if self.auditor is not None else True
            ),
        }
