"""Performance baseline harness: ``python -m repro bench``.

The harness times the merge machinery's named hot paths (SECDED page
encode, page comparison, hash-key generation, Scan Table walks,
event-queue churn, steady-state daemon scanning), checks the fleet,
replication, serving and scenario tiers' determinism and robustness
bits, and emits a schema-versioned ``BENCH_<timestamp>.json``
snapshot.  ``--compare BASELINE.json`` diffs a fresh run against a
committed baseline with per-metric tolerance verdicts — the CI
``perf-smoke`` job gates on it.  Whole-run timings of the paper's
experiments live in ``perfbench/``; the paper's shape claims are
asserted by the ``claims/`` suite.

Absolute nanosecond costs vary with the host, so regression gating uses
the machine-independent *in-run speedup ratios* (vectorized vs scalar
reference implementations measured in the same process); raw
throughput numbers ride along for human trend-reading.
"""

from repro.bench.compare import compare_reports, format_comparison, load_report
from repro.bench.harness import (
    SCHEMA_VERSION,
    Metric,
    build_report,
    default_report_path,
    measure_once_ns,
    measure_op_ns,
    write_report,
)
from repro.bench.scalar import ScalarKSMDaemon
from repro.bench.suites import SUITES, run_suites

__all__ = [
    "SCHEMA_VERSION",
    "SUITES",
    "Metric",
    "ScalarKSMDaemon",
    "build_report",
    "compare_reports",
    "default_report_path",
    "format_comparison",
    "load_report",
    "measure_once_ns",
    "measure_op_ns",
    "run_suites",
    "write_report",
]
