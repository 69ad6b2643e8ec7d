"""VM live-migration battery: round trips, merged pages, mid-CoW-break.

Every migration runs under a strict :class:`InvariantAuditor` — frame
accounting, rbtree validity, and Scan-Table well-formedness are checked
on both hosts after source teardown and after destination rebuild, and
page contents must survive byte-exactly.
"""

import numpy as np
import pytest

from repro.fleet import FunctionalHost, capture_vm, migrate_vm
from repro.verify.invariants import InvariantAuditor

TINY = dict(n_vms=3, pages_per_vm=60)


def _host(host_id, backend="ksm", seed=11, **kwargs):
    shape = dict(TINY)
    shape.update(kwargs)
    host = FunctionalHost(host_id, backend=backend, seed=seed, **shape)
    auditor = InvariantAuditor(strict=True)
    host.attach_auditor(auditor)
    return host, auditor


def _page_map(host, vm_id):
    vm = host.hypervisor.vms[vm_id]
    return {
        m.gpn: bytes(host.hypervisor.guest_read(vm, m.gpn))
        for m in vm.mappings()
    }


def test_round_trip_preserves_content_and_invariants():
    src, src_aud = _host(0, seed=11)
    dst, dst_aud = _host(1, seed=12)
    src.converge()
    dst.converge()

    vm_id = src.images.vms[0].vm_id
    original = _page_map(src, vm_id)
    src_guest_before = src.guest_pages()

    out = migrate_vm(src, dst, vm_id, auditor=src_aud)
    assert out.content_intact and out.audits_clean
    assert out.pages_moved == len(original)
    # The VM left the source: guest pages drop by exactly the VM's size,
    # and some frames free (shared frames survive for the other VMs).
    assert src.guest_pages() == src_guest_before - out.pages_moved
    assert out.src_footprint_after < out.src_footprint_before
    assert vm_id not in src.hypervisor.vms

    back = migrate_vm(dst, src, out.dest_vm_id, auditor=dst_aud)
    assert back.content_intact and back.audits_clean
    # Full round trip: every page byte-identical to the original map.
    assert _page_map(src, back.dest_vm_id) == original
    assert src_aud.clean and dst_aud.clean
    # Both hosts' merge stacks still function after the churn.
    src.converge()
    dst.converge()
    assert src_aud.clean and dst_aud.clean


def test_migrating_vm_with_merged_pages():
    src, src_aud = _host(0, seed=21)
    dst, dst_aud = _host(1, seed=22)
    src.converge()
    dst.converge()

    vm_id = src.images.vms[0].vm_id
    vm = src.hypervisor.vms[vm_id]
    merged_before = [m for m in vm.mappings() if m.cow]
    assert merged_before, "fixture must converge to merged (CoW) pages"

    out = migrate_vm(src, dst, vm_id, auditor=src_aud)
    assert out.content_intact and out.audits_clean and dst_aud.clean
    # The landed VM shares content with the destination's own VMs (same
    # app profile), so the destination scanner re-merges.
    assert out.dest_merges > 0
    new_vm = dst.hypervisor.vms[out.dest_vm_id]
    assert any(m.cow for m in new_vm.mappings())


def test_migration_mid_cow_break():
    src, src_aud = _host(0, seed=31)
    dst, dst_aud = _host(1, seed=32)
    src.converge()
    dst.converge()

    vm_id = src.images.vms[0].vm_id
    vm = src.hypervisor.vms[vm_id]
    merged = next(m for m in vm.mappings() if m.cow)
    # Dirty a merged page immediately before the migration: the write
    # CoW-breaks it, so the VM leaves mid-transition — one page freshly
    # private and divergent, its old merge partner still shared.
    stamp = np.frombuffer(np.int64(0xDEAD).tobytes(), dtype=np.uint8)
    src.hypervisor.guest_write(vm, merged.gpn, 128, stamp.copy())
    assert not vm.mapping(merged.gpn).cow
    dirtied = bytes(src.hypervisor.guest_read(vm, merged.gpn))

    out = migrate_vm(src, dst, vm_id, auditor=src_aud)
    assert out.content_intact and out.audits_clean and dst_aud.clean
    # The dirty write travelled, not the pre-break content.
    landed = bytes(
        dst.hypervisor.guest_read(
            dst.hypervisor.vms[out.dest_vm_id], merged.gpn
        )
    )
    assert landed == dirtied
    src.converge()
    assert src_aud.clean


@pytest.mark.parametrize("src_backend,dst_backend", [
    ("ksm", "esx"),
    ("esx", "pageforge"),
    ("pageforge", "uksm"),
])
def test_migration_across_heterogeneous_backends(src_backend, dst_backend):
    src, src_aud = _host(0, backend=src_backend, seed=41)
    dst, dst_aud = _host(1, backend=dst_backend, seed=42)
    src.converge()
    dst.converge()

    vm_id = src.images.vms[1].vm_id
    original = _page_map(src, vm_id)
    out = migrate_vm(src, dst, vm_id, auditor=src_aud)
    assert out.content_intact and out.audits_clean and dst_aud.clean
    assert _page_map(dst, out.dest_vm_id) == original


def test_capture_is_merge_state_free():
    """The wire format carries guest state only — no PPNs, no CoW bits."""
    src, _aud = _host(0, seed=51)
    src.converge()
    vm_id = src.images.vms[0].vm_id
    payload = capture_vm(src.hypervisor, vm_id)
    assert payload.n_pages == TINY["pages_per_vm"]
    assert payload.n_bytes == TINY["pages_per_vm"] * 4096
    for gpn, content, mergeable, category in payload.pages:
        assert isinstance(gpn, int)
        assert isinstance(content, bytes) and len(content) == 4096
        assert isinstance(mergeable, bool)
        assert isinstance(category, str)


def test_source_merge_machinery_forgets_the_vm():
    src, src_aud = _host(0, seed=61)
    dst, _dst_aud = _host(1, seed=62)
    src.converge()
    dst.converge()
    vm_id = src.images.vms[0].vm_id

    migrate_vm(src, dst, vm_id, auditor=src_aud)
    daemon = src.bundle.daemon
    assert all(key[0] != vm_id for key in daemon._checksums)
    assert all(c.vm_id != vm_id for c in daemon._pass_queue)
    # Remaining tree nodes must all reference live frames.
    for tree in (daemon.stable_tree, daemon.unstable_tree):
        for node in tree:
            node.key()  # raises if the backing frame died
    src.converge()
    assert src_aud.clean


@pytest.mark.parametrize("backend", ["ksm", "esx"])
def test_scanner_forget_vm_drops_queued_and_dead_state(backend):
    host = FunctionalHost(0, backend=backend, seed=71, **TINY)
    host.converge()
    host.scan(5)  # mid-pass: the queue holds every VM
    scanner = host.bundle.scanner
    vm_id = host.images.vms[0].vm_id

    def queued():
        if backend == "esx":
            return [vm.vm_id for vm, _mapping in scanner._queue]
        return [c.vm_id for c in scanner._pass_queue] + [
            key[0] for key in scanner._checksums
        ]

    assert vm_id in queued()
    host.hypervisor.destroy_vm(host.hypervisor.vms[vm_id])
    scanner.forget_vm(vm_id)
    assert vm_id not in queued()
    assert len(set(queued())) == TINY["n_vms"] - 1
    memory = host.hypervisor.memory
    if backend == "esx":
        for bucket in scanner._buckets.values():
            assert bucket and all(memory.is_allocated(p) for p in bucket)
    else:
        for tree in (scanner.stable_tree, scanner.unstable_tree):
            for node in tree:
                node.key()  # raises if the backing frame died
    host.converge()
    host.hypervisor.verify_consistency()
