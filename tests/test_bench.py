"""The ``repro bench`` gating policy, pinned on the committed baseline.

``repro bench --compare`` gates only in-run speedup ratios (a vectorized
path against its scalar reference, measured in the same process), so
its verdicts hold on any host.  Correctness bits and fractions belong to
the tests and CI jobs that own each guarantee, not to the bench.  The
steady-state scan fleet those ratios are measured on is pinned here too.
"""

import json
from pathlib import Path

import numpy as np

from repro.bench.suites import (
    COMMON_PREFIX_BYTES,
    SUITES,
    churn_tail,
    scan_fleet,
)

BASELINE = (Path(__file__).resolve().parents[1]
            / "benchmarks" / "baseline" / "BENCH_baseline.json")


def _baseline():
    return json.loads(BASELINE.read_text())


def test_only_speedup_ratios_are_gated():
    gated = {name: metric for name, metric in _baseline()["metrics"].items()
             if metric["gate"]}
    assert gated
    for name, metric in gated.items():
        assert name.endswith("speedup_vs_scalar"), name
        assert metric["unit"] == "x", name
        assert metric["higher_is_better"], name


def test_every_baseline_metric_belongs_to_a_registered_suite():
    report = _baseline()
    assert report["suites"] == list(SUITES)
    for name in report["metrics"]:
        assert name.split(".", 1)[0] in SUITES, name


def test_scan_fleet_pages_share_the_long_prefix():
    hypervisor, images = scan_fleet()
    pages = [hypervisor.guest_read(vm, mapping.gpn)
             for vm in images.vms for mapping in vm.mappings()]
    nonzero = [page for page in pages if page.any()]
    n_zero = images.n_vms * len(images.category_gpns["zero"])
    assert len(nonzero) == len(pages) - n_zero
    prefix = nonzero[0][:COMMON_PREFIX_BYTES]
    for page in nonzero:
        assert np.array_equal(page[:COMMON_PREFIX_BYTES], prefix)


def test_scan_fleet_churn_pages_are_the_churn_category():
    _, images = scan_fleet()
    churn = images.category_gpns["churn"]
    assert len(churn) > 0
    assert images.churn_pages == [
        (vm.vm_id, gpn) for vm in images.vms for gpn in churn
    ]


def test_churned_copies_never_reconverge_across_vms():
    hypervisor, images = scan_fleet()
    for stamp in (1, 2):
        churn_tail(hypervisor, images.churn_pages, stamp)
    for gpn in images.category_gpns["churn"]:
        copies = {hypervisor.guest_read(vm, gpn).tobytes()
                  for vm in images.vms}
        assert len(copies) == images.n_vms, gpn
