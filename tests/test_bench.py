"""The ``repro bench`` gating policy, pinned on the committed baseline.

``repro bench --compare`` gates only in-run speedup ratios (a vectorized
path against its scalar reference, measured in the same process), so
its verdicts hold on any host.  Correctness bits and fractions belong to
the tests and CI jobs that own each guarantee, not to the bench.
"""

import json
from pathlib import Path

from repro.bench.suites import SUITES

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
