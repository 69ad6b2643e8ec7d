"""The repository's benchmark: host cost of the simulator and the service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig9_ksm --seed 3 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``fig9_pageforge`` / ``fig9_ksm`` -- the timed ``ServerSystem``
  (moses, ``steady_state``, 4 VMs x 600 pages) in one merge mode;
* ``serve_churn`` -- a closed-loop caller on an in-process
  ``MergeServiceApp`` (ksm backend, churn on, 4 VMs x 400 pages).

Host time is process CPU time, rescaled to a reference host speed by an
interleaved calibration kernel (``speed.py``).  ``--trace 0`` reports
the end-to-end metrics of an untraced run; ``--trace 1`` runs the same
window twice, untraced in a child process then traced at every layer
boundary, and reports per-layer self time, call counts and
deterministic counts.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  The exit code
is 0 whenever that line is printed, whatever ``correct`` says.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(HERE.parent / "src"):
    raise SystemExit(f"benchmarking {repro.__file__}, not this checkout")

from layertrace import LayerTracer  # noqa: E402
from speed import NullMeter, SpeedMeter  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    digest_of,
    layer_counts,
    sub_seed,
)

REFERENCES = HERE / "references.json"
SPAN_DIR = HERE / "out"

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "sim_rate": "s/s",
    "ops_per_s": "1/s",
    "scan_p50_ms": "ms",
    "scan_p95_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
}

COUNT_UNITS = {
    "sim.engine.events": "count",
    "cache.snoop_hit_frac": "fraction",
    "cache.evictions": "count",
    "mem.coalesced_frac": "fraction",
    "mem.dram_row_hit_frac": "fraction",
    "core.lines_per_compare": "lines",
    "core.dup_frac": "fraction",
    "ksm.merge_frac": "fraction",
    "virt.merges": "count",
    "virt.cow_breaks": "count",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}


def per_layer_units(layers):
    units = {}
    for layer in layers:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(COUNT_UNITS)
    return units


def load_references(path=REFERENCES):
    return json.loads(path.read_text()) if path.exists() else {}


def stored_reference(references, workload, seconds, seed):
    return references.get(workload, {}).get(str(seconds), {}).get(str(seed))


def _percentile_ms(values_ns, pct):
    """The ``pct``-th percentile (integer), interpolated, in ms."""
    if len(values_ns) < 2:
        return values_ns[0] / 1e6 if values_ns else 0.0
    cuts = statistics.quantiles(values_ns, n=100, method="inclusive")
    return cuts[pct - 1] / 1e6


def _highest_valid_pct(n):
    """Highest integer percentile with at least ten samples beyond it
    (0 when there are no more than ten samples)."""
    return max(0, int(100 * (1 - 10 / n))) if n else 0


def _tail(name, values_ns):
    """Summary text of one op class: count, median, valid tail."""
    pct = _highest_valid_pct(len(values_ns))
    text = f"{name} ops n={len(values_ns)}"
    if values_ns:
        text += f" p50={_percentile_ms(values_ns, 50):.3f} ms"
    if pct:
        text += f" p{pct}={_percentile_ms(values_ns, pct):.3f} ms"
    return text + (f" (highest valid percentile p{pct})" if pct else
                   " (no percentile has ten samples beyond it)")


def run_untraced(name, seed, seconds, references):
    """One end-to-end run; returns (result, summary text, digest)."""
    workload = WORKLOADS[name]
    n_units = workload.units_per_instance(seconds)
    meter = SpeedMeter()
    digests, failures = [], []
    sim_s = 0.0
    failed_ops = 0
    first_unit = {}
    wanted = dict(workload.strata)
    accepted = []  # sub-seed index of every instance measured
    index = -1
    while any(wanted.values()):
        index += 1
        if index >= 10 * workload.instances:
            raise RuntimeError(f"{name}: strata {wanted} left unfilled")
        instance = meter.time_call(workload.build, sub_seed(seed, index))
        key = workload.key(instance)
        if not wanted.get(key):
            del instance
            gc.collect()
            continue
        wanted[key] -= 1
        accepted.append(index)

        def mark(k, instance=instance, first=len(accepted) == 1):
            if first and k == 1:
                first_unit["main"] = instance.digest()
            return False

        sim_start = instance.sim_now
        instance.run(n_units, meter, on_scan=mark)
        sim_s += instance.sim_now - sim_start
        failures += instance.check()
        failed_ops += getattr(instance, "failed", 0)
        digests.append(instance.digest())
        # The simulated machine is full of reference cycles: collect it
        # now so instances never pile up in memory.
        del instance, mark
        gc.collect()

    # A replica of the first instance must reach the same state after
    # its first scan unit: the check that holds even for a seed with no
    # stored reference.
    replica = meter.time_call(workload.build, sub_seed(seed, accepted[0]))

    def mark_replica(k):
        first_unit["replica"] = replica.digest()
        return True

    replica.run(n_units, NullMeter(), on_scan=mark_replica)
    del replica, mark_replica
    gc.collect()
    if "main" not in first_unit or first_unit["main"] != first_unit.get(
        "replica"
    ):
        failures.append("replica_mismatch")
    meter.close()
    scans, reads = meter.samples["scan"], meter.samples["read"]
    window_s = meter.total_ns() / 1e9

    digest = digest_of(digests)
    reference = stored_reference(references, name, seconds, seed)
    if reference is not None and reference != digest:
        failures.append("reference_mismatch")

    attempted = len(scans) + len(reads)
    failed = attempted if failures else failed_ops
    values = {
        "setup_s": statistics.median(meter.samples["setup"]) / 1e9,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            - meter.kernel_rss_bytes
        ) / 2**20,
        "ok_frac": (attempted - failed) / attempted,
        "sim_rate": sim_s / window_s,
        "ops_per_s": attempted / window_s,
        "scan_p50_ms": _percentile_ms(scans, 50),
        "scan_p95_ms": _percentile_ms(scans, 95),
        "read_p50_ms": _percentile_ms(reads, 50),
        "read_p99_ms": _percentile_ms(reads, 99),
    }
    summary = (
        f"{name} seed={seed} seconds={seconds}: {workload.instances} "
        f"instances (of {index + 1} built) x {n_units} units, "
        f"window {window_s:.2f} reference CPU-s "
        f"({meter.raw_ns / 1e9:.2f} measured) "
        f"(collector {sum(meter.samples['gc']) / 1e9:.2f}, host speed "
        f"{meter.speed():.2f}), simulated {sim_s:.4f} s; "
        f"{_tail('scan', scans)}, {_tail('read', reads)}; "
        f"reference={'stored' if reference else 'none'}; "
        f"failed checks={failures or 'none'}; digest={digest}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()
        },
    }
    return result, summary, digest


def _traced_units(name, seconds):
    return max(1, round(seconds * WORKLOADS[name].units_per_s / 3))


def run_plain_window(name, seed, seconds):
    """The untraced twin of :func:`run_traced`'s window.

    Returns (rescaled CPU ns of the window, digest).  It runs in a
    process of its own, so that the traced window, too, starts with the
    program's process-wide content memos empty.
    """
    workload = WORKLOADS[name]
    meter = SpeedMeter()
    plain = meter.time_call(workload.build, sub_seed(seed, 0))
    plain.run(_traced_units(name, seconds), meter)
    meter.close()
    return meter.total_ns(), plain.digest()


def _plain_window_in_child(name, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--plain-window"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    answer = json.loads(proc.stdout.strip().splitlines()[-1])
    return answer["total_ns"], answer["digest"]


def run_traced(name, seed, seconds, span_path=None):
    """Untraced then traced runs of one window; per-layer metrics."""
    workload = WORKLOADS[name]
    n_units = _traced_units(name, seconds)
    plain_ns, plain_digest = _plain_window_in_child(name, seed, seconds)

    meter = SpeedMeter()
    traced = meter.time_call(workload.build, sub_seed(seed, 0))
    tracer = LayerTracer()
    before = traced.counters()
    tracer.install()
    try:
        kernel_wall, kernel_cpu = meter.kernel_wall_ns, meter.kernel_cpu_ns
        wall, cpu = time.perf_counter_ns(), time.process_time_ns()
        traced.run(n_units, meter)
        wall = time.perf_counter_ns() - wall - (
            meter.kernel_wall_ns - kernel_wall
        )
        cpu = time.process_time_ns() - cpu - (
            meter.kernel_cpu_ns - kernel_cpu
        )
    finally:
        tracer.uninstall()
    meter.close()
    after = traced.counters()

    failures = traced.check()
    if traced.digest() != plain_digest:
        failures.append("tracing_changed_outputs")
    attempted = len(meter.samples["scan"]) + len(meter.samples["read"])
    failed = attempted if failures else getattr(traced, "failed", 0)

    # Spans are wall time: rescale each by the host speed at its time,
    # and all by the window's CPU share (time lost to preemption).
    cpu_share = min(1.0, cpu / wall) if wall else 1.0
    values = tracer.summary(
        wall, scale=lambda mids: meter.factors_at_wall(mids) * cpu_share
    )
    values.update(layer_counts(before, after))
    values["trace.overhead_frac"] = meter.total_ns() / plain_ns - 1.0
    if span_path is not None:
        tracer.write(span_path)
    units = per_layer_units(tracer.names)
    summary = (
        f"{name} seed={seed} seconds={seconds} traced: {n_units} units, "
        f"untraced {plain_ns / 1e9:.2f} reference CPU-s, "
        f"traced {meter.total_ns() / 1e9:.2f} (CPU share of wall "
        f"{cpu_share:.3f}), "
        f"{len(tracer.span_layer)} spans; failed checks={failures or 'none'}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": values[k], "unit": units[k]} for k in units
        },
    }
    return result, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Child process of a traced run: its untraced window, then exit.
    parser.add_argument("--plain-window", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.plain_window:
        total_ns, digest = run_plain_window(
            args.workload, args.seed, args.seconds
        )
        print(json.dumps({"total_ns": total_ns, "digest": digest}))
        return 0
    if args.trace:
        span_path = SPAN_DIR / f"spans-{args.workload}-{args.seed}.npz"
        result, summary = run_traced(
            args.workload, args.seed, args.seconds, span_path
        )
    else:
        result, summary, _digest = run_untraced(
            args.workload, args.seed, args.seconds, load_references()
        )
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
