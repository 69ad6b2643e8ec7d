"""The untimed host builder every functional run configures.

Each functional backend (and the merger-less host) must boot clean under
a strict auditor, and a host built from a captured state — no images
booted — must stand exactly where the captured host stood and keep
evolving identically.
"""

import json

import pytest

from repro.common.config import TAILBENCH_APPS
from repro.sim.backends import available_backends
from repro.sim.host import FunctionalHost
from repro.sim.system import ServerSystem, SimulationScale
from repro.verify.invariants import InvariantAuditor

FUNCTIONAL = [None] + [b for b in available_backends() if b != "baseline"]
SHAPE = dict(app="moses", n_vms=2, pages_per_vm=40, seed=3,
             pages_to_scan=60, churn=True)


def _canonical(state):
    return json.dumps(state, sort_keys=True)


@pytest.mark.parametrize("backend", FUNCTIONAL)
def test_boots_audits_clean_and_restores(backend):
    host = FunctionalHost("test/host", backend=backend, **SHAPE)
    auditor = host.attach_auditor(InvariantAuditor(strict=True))
    assert len(host.hypervisor.vms) == SHAPE["n_vms"]
    if host.merger is not None:
        for _ in range(3):
            host.scan()
    host.audit(auditor)
    assert auditor.clean and auditor.total_checks > 0

    state = host.capture()
    twin = FunctionalHost("test/host", backend=backend, state=state,
                          **SHAPE)
    assert twin.images is None
    assert twin.digests() == host.digests()
    assert _canonical(twin.capture()) == _canonical(state)
    twin.audit(InvariantAuditor(strict=True))

    # Restored RNG and merge state: the next intervals match too.
    for _ in range(2):
        if host.merger is not None:
            host.scan()
            twin.scan()
        else:
            host.churner.tick()
            twin.churner.tick()
    assert twin.digests() == host.digests()
    assert _canonical(twin.capture()) == _canonical(host.capture())


def test_fleet_host_identity():
    host = FunctionalHost(4, backend="ksm", n_vms=2, pages_per_vm=20)
    assert host.rng.name == "fleet/host4"
    assert [vm.name for vm in host.images.vms] == ["h4-vm0", "h4-vm1"]


def test_churn_fraction_follows_scenario_and_survives_restore():
    # The untimed host rewrites what the timed system rewrites per tick.
    timed = ServerSystem(
        TAILBENCH_APPS["moses"], scenario="churn",
        scale=SimulationScale(pages_per_vm=40, n_vms=2),
    )
    host = FunctionalHost("test/churn", backend="ksm", scenario="churn",
                          **SHAPE)
    assert host.churner.fraction_per_tick == 1.0
    assert host.churner.fraction_per_tick == timed.churner.fraction_per_tick
    steady = FunctionalHost("test/churn", backend="ksm", **SHAPE)
    assert steady.churner.fraction_per_tick == 0.5

    # A checkpoint carries the fraction the churner actually used.
    host.start_churn(host.churner.churn_pages, 0.25)
    twin = FunctionalHost("test/churn", backend="ksm", scenario="churn",
                          state=host.capture(), **SHAPE)
    assert twin.churner.fraction_per_tick == 0.25
