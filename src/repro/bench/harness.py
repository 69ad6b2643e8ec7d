"""Measurement core for the bench harness.

All timing uses ``time.process_time_ns`` (CPU time of this process):
wall-clock on shared machines jitters by double-digit percentages, while
per-op CPU cost is stable.  Metrics report the *best* observed call
(standard micro-benchmark practice — the minimum is the least noisy
estimator of the true cost).
"""

import json
import platform
import resource
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

#: Bump on any incompatible change to the report layout.  ``compare``
#: refuses to diff reports with mismatched schema versions.
SCHEMA_VERSION = 1


class Metric:
    """One measured value.

    ``gate=True`` marks the metric as regression-gated: ``--compare``
    issues a PASS/FAIL verdict for it.  Only machine-independent ratios
    (in-run vectorized-vs-scalar speedups) should be gated — absolute
    ns/op numbers differ across hosts and are informational.
    """

    __slots__ = ("name", "value", "unit", "higher_is_better", "gate")

    def __init__(self, name, value, unit, higher_is_better=True, gate=False):
        self.name = name
        self.value = float(value)
        self.unit = unit
        self.higher_is_better = higher_is_better
        self.gate = gate

    def to_dict(self):
        return {
            "value": self.value,
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "gate": self.gate,
        }

    def __repr__(self):
        return f"Metric({self.name}={self.value:g} {self.unit})"


def measure_op_ns(fn, ops_per_call=1, min_time_s=0.2, min_calls=3,
                  max_calls=1000):
    """Best-case CPU nanoseconds per operation.

    Calls ``fn`` repeatedly until ``min_time_s`` of CPU time and
    ``min_calls`` calls have accumulated, and returns the minimum
    observed per-call cost divided by ``ops_per_call`` (callers batch
    many operations per call so per-op cost stays well above timer
    resolution).
    """
    best = None
    calls = 0
    spent = 0
    budget = int(min_time_s * 1e9)
    while (spent < budget or calls < min_calls) and calls < max_calls:
        t0 = time.process_time_ns()
        fn()
        dt = time.process_time_ns() - t0
        if best is None or dt < best:
            best = dt
        calls += 1
        spent += dt
    return best / ops_per_call


def measure_pair_ns(first, second, ops_per_call, min_time_s=0.2):
    """``(first_ns, second_ns)``: :func:`measure_op_ns` of each, in five
    alternating short measurements (``min_time_s`` per side in all), so
    a slow stretch of a shared host hits both sides of a ratio.
    """
    rounds = 5
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for side, (fn, ops) in enumerate(zip((first, second), ops_per_call)):
            best[side] = min(best[side], measure_op_ns(
                fn, ops_per_call=ops, min_time_s=min_time_s / rounds,
            ))
    return best[0], best[1]


def _git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment():
    """Provenance block: versions, platform, and the commit measured."""
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def max_rss_kb():
    """Peak resident set size of this process, in KiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def build_report(metrics, tier, suites_run):
    """Assemble the schema-versioned report dict."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "repro-bench",
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "tier": tier,
        "suites": list(suites_run),
        "environment": environment(),
        "max_rss_kb": max_rss_kb(),
        "metrics": {m.name: m.to_dict() for m in metrics},
    }


def default_report_path(directory="."):
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return str(Path(directory) / f"BENCH_{stamp}.json")


def write_report(report, path):
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def format_report(report):
    """Human-readable metric table for terminal output."""
    lines = []
    env = report["environment"]
    lines.append(
        f"repro bench [{report['tier']}]  python {env['python']}  "
        f"numpy {env['numpy']}  sha {str(env['git_sha'])[:12]}"
    )
    lines.append(
        f"peak RSS {report['max_rss_kb'] / 1024:.1f} MiB  "
        f"suites: {', '.join(report['suites'])}"
    )
    header = f"{'metric':<44} {'value':>14} {'unit':<12} gate"
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(report["metrics"]):
        m = report["metrics"][name]
        lines.append(
            f"{name:<44} {m['value']:>14,.1f} {m['unit']:<12} "
            f"{'*' if m['gate'] else ''}"
        )
    return "\n".join(lines)
