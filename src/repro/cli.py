"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's experiments:

* ``savings``   — Figure 7 (memory footprint with/without merging);
* ``hashkeys``  — Figure 8 (jhash vs ECC key outcomes);
* ``latency``   — Figures 9/10/11 + Tables 4/5 for chosen apps;
* ``run``       — timed system under any registered merge backend
  (the paper's three plus ``uksm``/``esx``);
* ``fleet``     — sharded multi-host fleet with a deterministic reduce
  (cross-host dedup opportunity, heterogeneous backends);
* ``faults``    — seeded chaos campaigns (fault injection + degradation);
* ``demo``      — the 30-second quickstart merge demo;
* ``verify``    — correctness gate (golden figures, differential
  oracle, runtime invariant audit);
* ``bench``     — performance baselines (hot-path timings, BENCH_*.json
  snapshots, regression comparison);
* ``config``    — print Table 2 (the architecture in force).

Every command accepts ``--csv PATH`` / ``--json PATH`` to export rows.
"""

import argparse
import json
import sys

from repro.analysis import (
    format_fault_campaign,
    format_fig7_memory_savings,
    format_fig8_hash_keys,
    format_fig9_mean_latency,
    format_fig10_tail_latency,
    format_fig11_bandwidth,
    format_table2_configuration,
    format_table4_ksm_characterization,
    format_table5_pageforge,
)
from repro.analysis.export import (
    faults_to_rows,
    hash_study_to_rows,
    latency_to_rows,
    metrics_to_rows,
    rows_to_csv,
    rows_to_json,
    savings_to_rows,
)
from repro.bench.cli import add_bench_parser
from repro.common.config import TAILBENCH_APPS, default_machine_config
from repro.scenarios import available_scenarios
from repro.serve.cli import add_loadgen_parser, add_serve_parser
from repro.sim.backends import available_backends, recoverable_backends


def _add_export_args(parser):
    parser.add_argument("--csv", help="write result rows to a CSV file")
    parser.add_argument("--json", help="write result rows to a JSON file")
    parser.add_argument(
        "--apps", nargs="*", default=list(TAILBENCH_APPS),
        choices=list(TAILBENCH_APPS), help="applications to run",
    )
    parser.add_argument("--seed", type=int, default=2017)


def _export(rows, args):
    if args.csv:
        rows_to_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        rows_to_json(rows, args.json)
        print(f"wrote {args.json}")


def cmd_savings(args):
    from repro.sim import run_memory_savings

    results = []
    for app in args.apps:
        for engine in ("ksm", "pageforge"):
            checkpoint_dir = None
            if args.checkpoint_dir:
                from pathlib import Path

                checkpoint_dir = (
                    Path(args.checkpoint_dir) / f"{app}-{engine}"
                )
            result = run_memory_savings(
                app, pages_per_vm=args.pages_per_vm, n_vms=args.vms,
                engine=engine, seed=args.seed,
                checkpoint_every=args.checkpoint_every,
                checkpoint_dir=checkpoint_dir, resume=args.resume,
            )
            results.append(result)
    pageforge = [r for r in results if r.engine == "pageforge"]
    print(format_fig7_memory_savings(pageforge))
    _export(savings_to_rows(results), args)
    return 0


def cmd_hashkeys(args):
    from repro.sim import run_hash_key_study

    results = [
        run_hash_key_study(
            app, pages_per_vm=args.pages_per_vm, n_vms=args.vms,
            n_passes=args.passes, seed=args.seed,
        )
        for app in args.apps
    ]
    print(format_fig8_hash_keys(results))
    _export(hash_study_to_rows(results), args)
    return 0


def cmd_latency(args):
    from repro.core.power import PageForgePowerModel
    from repro.sim import SimulationScale, run_latency_experiment

    scale = SimulationScale(
        pages_per_vm=args.pages_per_vm, n_vms=args.vms,
        duration_s=args.duration, warmup_s=args.warmup,
    )
    results = []
    for app in args.apps:
        print(f"running {app} ...", file=sys.stderr)
        results.append(
            run_latency_experiment(
                app, scale=scale, seed=args.seed,
                checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            )
        )
    print(format_fig9_mean_latency(results))
    print()
    print(format_fig10_tail_latency(results))
    print()
    print(format_fig11_bandwidth(results))
    print()
    print(format_table4_ksm_characterization(results))
    print()
    print(format_table5_pageforge(results, PageForgePowerModel()))
    _export(latency_to_rows(results), args)
    return 0


def cmd_run(args):
    """Timed run under any registered backend; one row per (app, mode)."""
    from repro.sim import SimulationScale, run_latency_experiment

    registered = available_backends()
    modes = []
    for mode in args.mode or ["baseline", "ksm", "pageforge"]:
        if mode not in registered:
            print(
                f"error: unknown merge backend {mode!r}; registered "
                f"backends: {', '.join(registered)}",
                file=sys.stderr,
            )
            return 2
        if mode not in modes:
            modes.append(mode)
    if args.scenario not in available_scenarios():
        print(
            f"error: unknown scenario {args.scenario!r}; registered "
            f"scenarios: {', '.join(available_scenarios())}",
            file=sys.stderr,
        )
        return 2
    if "baseline" not in modes:
        # The normalisation reference every summary row divides by.
        modes.insert(0, "baseline")

    scale = SimulationScale(
        pages_per_vm=args.pages_per_vm, n_vms=args.vms,
        duration_s=args.duration, warmup_s=args.warmup,
    )
    results = []
    for app in args.apps:
        print(f"running {app} ({', '.join(modes)}) "
              f"[scenario {args.scenario}] ...", file=sys.stderr)
        results.append(
            run_latency_experiment(
                app, modes=tuple(modes), scale=scale, seed=args.seed,
                scenario=args.scenario,
            )
        )

    rows = latency_to_rows(results)
    header = (f"{'app':<12} {'mode':<10} {'norm mean':>9} {'norm p95':>9} "
              f"{'kernel%':>8} {'l3 miss':>8} {'bw GB/s':>8}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['app']:<12} {row['mode']:<10} "
            f"{row['norm_mean']:>9.3f} {row['norm_p95']:>9.3f} "
            f"{100 * row['kernel_share_avg']:>7.2f}% "
            f"{row['l3_miss_rate']:>8.4f} "
            f"{row['bandwidth_peak_gbps']:>8.3f}"
        )
    _export(rows, args)
    if args.metrics_json:
        rows_to_json(metrics_to_rows(results), args.metrics_json)
        print(f"wrote {args.metrics_json}")
    return 0


def cmd_fleet(args):
    """Sharded fleet run: map hosts onto workers, reduce, fingerprint."""
    from repro.analysis.export import fleet_to_rows
    from repro.fleet import FleetSpec, ShardRetryExhausted, run_fleet

    backends = args.backend or ["ksm"]
    scenarios = args.scenario or ["steady_state"]
    try:
        spec = FleetSpec.heterogeneous(
            args.shards, backends, app=args.app, n_vms=args.vms,
            pages_per_vm=args.pages_per_vm, seed=args.seed,
            duration_s=args.duration, warmup_s=args.warmup,
            scenarios=scenarios,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def progress(shard):
        print(f"  host {shard.host_id} ({shard.backend}) done: "
              f"{shard.queries} queries, "
              f"{shard.footprint_pages}/{shard.guest_pages} pages",
              file=sys.stderr)

    print(f"running {spec.n_hosts} shards ({', '.join(backends)}) ...",
          file=sys.stderr)
    retry_kwargs = {}
    if args.shard_retries is not None:
        retry_kwargs["shard_retries"] = args.shard_retries
    if args.shard_timeout is not None:
        retry_kwargs["shard_timeout"] = args.shard_timeout
    try:
        result = run_fleet(spec, workers=args.workers,
                           progress=progress, **retry_kwargs)
    except ShardRetryExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    header = (f"{'host':>4} {'backend':<10} {'app':<10} {'queries':>7} "
              f"{'mean ms':>8} {'p95 ms':>8} {'pages':>12} {'save%':>6}")
    print(header)
    print("-" * len(header))
    for host in result.per_host:
        print(
            f"{host['host_id']:>4} {host['backend']:<10} "
            f"{host['app']:<10} {host['queries']:>7} "
            f"{1e3 * host['mean_sojourn_s']:>8.2f} "
            f"{1e3 * host['p95_sojourn_s']:>8.2f} "
            f"{host['footprint_pages']:>5}/{host['guest_pages']:<6} "
            f"{100 * host['savings_frac']:>5.1f}%"
        )
    print("-" * len(header))
    print(f"fleet: {result.n_hosts} hosts, {result.n_vms} VMs, "
          f"{result.queries} queries")
    print(f"  savings            {100 * result.savings_frac:.1f}% "
          f"({result.footprint_pages}/{result.guest_pages} pages, "
          f"{result.merges} merges, {result.cow_breaks} CoW breaks)")
    print(f"  latency            mean {1e3 * result.mean_sojourn_s:.2f} ms, "
          f"p95 worst-host {1e3 * result.p95_sojourn_s_max:.2f} ms")
    print(f"  bandwidth          worst host "
          f"{result.bandwidth_max_gbps:.2f} GB/s, "
          f"aggregate {result.bandwidth_sum_gbps:.2f} GB/s")
    print(f"  cross-host dedup   {result.cross_host_duplicate_frames} "
          f"duplicate frames across hosts "
          f"({100 * result.cross_host_dedup_frac:.1f}% of footprint); "
          f"a fleet-wide merger could reach "
          f"{100 * result.potential_savings_frac:.1f}% savings")
    if len(result.by_backend) > 1:
        for backend in sorted(result.by_backend):
            bucket = result.by_backend[backend]
            print(f"  {backend:<18} {bucket['hosts']} hosts, "
                  f"{100 * bucket['savings_frac']:.1f}% savings")
    if result.shard_retries:
        detail = ", ".join(
            f"host {host_id}: {count}"
            for host_id, count in sorted(result.shard_retries.items())
        )
        print(f"  shard retries      {result.total_shard_retries} "
              f"({detail}) — fingerprint unaffected")
    print(f"  fingerprint        {result.fingerprint}")
    _export(fleet_to_rows(result), args)
    return 0


def cmd_faults(args):
    from repro.faults import run_fault_suite

    results = run_fault_suite(
        app=args.app, seed=args.seed, rate=args.rate, quick=args.quick,
    )
    print(format_fault_campaign(results))
    _export(faults_to_rows(results), args)
    return 0 if all(r.clean for r in results.values()) else 1


def cmd_supervise(args):
    """Crash-safe supervised run: checkpoints, journal, watchdog, resume.

    The replicated tier with zero replicas: the worker runs under
    ``<workdir>/primary`` and every crash or stall resumes it in place.
    """
    from repro.faults import FaultPlan
    from repro.recovery import ReplicatedSupervisor, RunSpec

    spec = None
    if not args.resume:
        plan = FaultPlan.uniform(args.rate, seed=args.seed, churn=True)
        import dataclasses

        plan = dataclasses.replace(
            plan,
            process_crash_prob=args.crash_prob,
            crash_after_ops=args.crash_after_ops,
        )
        spec = RunSpec(
            app=args.app, mode=args.mode, seed=args.seed,
            pages_per_vm=args.pages_per_vm, n_vms=args.vms,
            intervals=args.intervals,
            checkpoint_every=args.checkpoint_every, plan=plan,
        )
    supervisor = ReplicatedSupervisor(
        args.workdir, spec=spec, n_replicas=0,
        max_attempts=args.max_attempts, stall_timeout=args.stall_timeout,
    )
    outcome = supervisor.run(check_equivalence=args.check_equivalence)
    print(json.dumps(
        {
            k: outcome[k]
            for k in ("completed", "attempts", "crashes", "stalls_killed",
                      "exit_codes", "promoted", "result", "equivalence")
        },
        indent=2, sort_keys=True,
    ))
    return _supervised_exit_code(outcome)


def _supervised_exit_code(outcome):
    """0 iff the run completed clean (and equivalent, when checked)."""
    if not outcome["completed"]:
        return 1
    validation = outcome["result"]["validation"]
    clean = validation["auditor_clean"] and validation["zero_false_merges"]
    if outcome["equivalence"] is not None:
        clean &= outcome["equivalence"]["equivalent"]
    return 0 if clean else 1


def cmd_replicate(args):
    """Replicated recovery tier: primary-backup streaming + failover.

    ``--worker`` is the internal child entry the supervisor spawns (the
    primary process); the parent hosts the replicas, the chaos links
    and the failover loop.
    """
    import dataclasses

    from repro.faults import FaultPlan
    from repro.recovery import ReplicatedSupervisor, RunSpec
    from repro.recovery.replication.cluster import run_primary_worker

    if args.worker:
        return run_primary_worker(args.workdir, args.attempt, args.connect)

    plan = FaultPlan.uniform(args.rate, seed=args.seed, churn=True)
    plan = dataclasses.replace(
        plan,
        process_crash_prob=args.crash_prob,
        crash_after_ops=args.kill_after_ops,
        net_drop_rate=args.net_drop,
        net_duplicate_rate=args.net_duplicate,
        net_reorder_rate=args.net_reorder,
        net_lag_frames=args.net_lag,
        partition_prob=args.partition_prob,
        partition_frames=args.partition_frames,
    )
    spec = RunSpec(
        app=args.app, mode=args.mode, seed=args.seed,
        pages_per_vm=args.pages_per_vm, n_vms=args.vms,
        intervals=args.intervals,
        checkpoint_every=args.checkpoint_every, plan=plan,
    )
    supervisor = ReplicatedSupervisor(
        args.workdir, spec=spec, n_replicas=args.replicas,
        max_attempts=args.max_attempts, stall_timeout=args.stall_timeout,
    )
    outcome = supervisor.run(check_equivalence=args.check_equivalence)
    print(json.dumps(
        {
            k: outcome[k]
            for k in ("completed", "attempts", "crashes", "stalls_killed",
                      "failovers", "promoted", "final_workdir",
                      "exit_codes")
        },
        indent=2, sort_keys=True,
    ))
    rep = outcome["replication"]
    print(f"primary LSN {rep['primary_lsn']}, "
          f"{rep['records_streamed']} records / "
          f"{rep['checkpoints_streamed']} checkpoints streamed, "
          f"lag p95 {rep['lag_records']['p95']:.0f} records")
    if outcome["equivalence"] is not None:
        print("equivalent:", outcome["equivalence"]["equivalent"])
    return _supervised_exit_code(outcome)


def cmd_demo(args):
    from repro import quick_merge_demo

    print(quick_merge_demo(n_vms=args.vms, seed=args.seed))
    return 0


def cmd_config(_args):
    print(format_table2_configuration(default_machine_config()))
    return 0


def cmd_verify(args):
    """Correctness gate: goldens, differential oracle, invariant audit.

    Exits nonzero on any golden drift beyond tolerance, any false merge
    against the full-compare oracle, or any invariant violation.
    """
    from repro.analysis import (
        format_differential,
        format_golden_drift,
        format_invariant_audit,
    )
    from repro.verify import (
        REGEN_COMMAND,
        InvariantAuditor,
        canonical_json,
        compare_fingerprints,
        compute_fingerprints,
        load_goldens,
        run_differential_suite,
        write_goldens,
    )

    failed = False

    if args.differential:
        seeds = tuple(range(args.seed, args.seed + args.runs))
        results = run_differential_suite(app=args.app, seeds=seeds)
        print(format_differential(results))
        failed |= not all(r.ok for r in results)

    if args.invariants:
        from repro.common.config import TAILBENCH_APPS
        from repro.sim.system import MODES, ServerSystem, SimulationScale

        scale = SimulationScale(
            pages_per_vm=100, n_vms=2, duration_s=0.08, warmup_s=0.08
        )
        for mode in MODES:
            auditor = InvariantAuditor(strict=False)
            system = ServerSystem(
                TAILBENCH_APPS[args.app], mode=mode, scale=scale,
                seed=args.seed, auditor=auditor,
            )
            system.run()
            print(f"[{mode}] " + format_invariant_audit(auditor))
            failed |= not auditor.clean

    if args.goldens_check or args.regen:
        fingerprints = compute_fingerprints()
        if args.regen:
            path = write_goldens(fingerprints, args.goldens)
            print(f"regenerated {path} ({len(fingerprints)} metrics)")
        else:
            try:
                golden = load_goldens(args.goldens)
            except FileNotFoundError:
                print(f"no golden file at {args.goldens}; create it with:")
                print(f"  {REGEN_COMMAND}")
                return 1
            drifts = compare_fingerprints(golden, fingerprints)
            print(format_golden_drift(drifts, regen_command=REGEN_COMMAND))
            failed |= bool(drifts)
            if args.json:
                from repro.common.io import atomic_write_text

                atomic_write_text(args.json, canonical_json(fingerprints))
                print(f"wrote {args.json}")

    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PageForge (MICRO 2017) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("savings", help="Figure 7: memory savings")
    _add_export_args(p)
    p.add_argument("--pages-per-vm", type=int, default=600)
    p.add_argument("--vms", type=int, default=10)
    p.add_argument("--checkpoint-dir",
                   help="directory for crash-safe run checkpoints")
    p.add_argument("--checkpoint-every", type=int, default=10,
                   help="scan ticks between checkpoints")
    p.add_argument("--resume", action="store_true",
                   help="continue from the newest valid checkpoint")
    p.set_defaults(func=cmd_savings)

    p = sub.add_parser("hashkeys", help="Figure 8: hash-key outcomes")
    _add_export_args(p)
    p.add_argument("--pages-per-vm", type=int, default=400)
    p.add_argument("--vms", type=int, default=4)
    p.add_argument("--passes", type=int, default=6)
    p.set_defaults(func=cmd_hashkeys)

    p = sub.add_parser("latency",
                       help="Figures 9-11 + Tables 4-5: timed system")
    _add_export_args(p)
    p.add_argument("--pages-per-vm", type=int, default=1200)
    p.add_argument("--vms", type=int, default=10)
    p.add_argument("--duration", type=float, default=0.6)
    p.add_argument("--warmup", type=float, default=0.8)
    p.add_argument("--checkpoint-dir",
                   help="directory for per-mode summary checkpoints")
    p.add_argument("--resume", action="store_true",
                   help="skip (app, mode) runs already summarised")
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser(
        "run",
        help="timed system under any registered merge backend",
    )
    _add_export_args(p)
    p.add_argument("--mode", action="append",
                   help="merge backend to simulate (repeatable; default: "
                        "baseline ksm pageforge; see also: "
                        + ", ".join(available_backends()))
    p.add_argument("--scenario", default="steady_state",
                   help="registered workload scenario (default "
                        "steady_state; see also: "
                        + ", ".join(available_scenarios()))
    p.add_argument("--pages-per-vm", type=int, default=400)
    p.add_argument("--vms", type=int, default=4)
    p.add_argument("--duration", type=float, default=0.3)
    p.add_argument("--warmup", type=float, default=0.4)
    p.add_argument("--metrics-json",
                   help="write the per-mode component-metrics snapshot")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "fleet",
        help="fleet-scale sharded run with deterministic reduce",
    )
    p.add_argument("--shards", type=int, default=8,
                   help="number of simulated hosts")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: min(shards, cores)); "
                        "any value produces the same fingerprint")
    p.add_argument("--backend", action="append",
                   help="merge backend; repeat to build a heterogeneous "
                        "fleet (hosts cycle through the list; default "
                        "ksm; see also: "
                        + ", ".join(available_backends()))
    p.add_argument("--scenario", action="append",
                   help="workload scenario; repeat to mix scenarios "
                        "across hosts (hosts cycle through the list, "
                        "independently of --backend; default "
                        "steady_state; see also: "
                        + ", ".join(available_scenarios()))
    p.add_argument("--app", default="moses", choices=list(TAILBENCH_APPS))
    p.add_argument("--vms", type=int, default=4,
                   help="VMs per host")
    p.add_argument("--pages-per-vm", type=int, default=200)
    p.add_argument("--duration", type=float, default=0.3)
    p.add_argument("--warmup", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=2017,
                   help="the single fleet seed every shard seed derives "
                        "from")
    p.add_argument("--shard-retries", type=int, default=None,
                   help="re-runs allowed per shard after a worker death "
                        "or timeout (default 3); retries never change "
                        "the fingerprint")
    p.add_argument("--shard-timeout", type=float, default=None,
                   metavar="S",
                   help="abandon and retry any shard that runs longer "
                        "than this (default: unbounded)")
    p.add_argument("--csv", help="write per-host + total rows to CSV")
    p.add_argument("--json", help="write per-host + total rows to JSON")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("faults",
                       help="seeded chaos campaigns across merge engines")
    p.add_argument("--csv", help="write result rows to a CSV file")
    p.add_argument("--json", help="write result rows to a JSON file")
    p.add_argument("--app", default="moses", choices=list(TAILBENCH_APPS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=1e-3,
                   help="per-line fault rate for the uniform plan")
    p.add_argument("--quick", action="store_true",
                   help="small fleet for CI smoke runs")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "supervise",
        help="crash-safe supervised run with checkpoint/journal recovery",
    )
    p.add_argument("--workdir", required=True,
                   help="run directory (outcome.json; the run itself in "
                        "primary/)")
    p.add_argument("--resume", action="store_true",
                   help="continue an existing workdir instead of starting "
                        "a fresh spec")
    p.add_argument("--app", default="moses", choices=list(TAILBENCH_APPS))
    p.add_argument("--mode", default="pageforge",
                   choices=list(recoverable_backends()))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pages-per-vm", type=int, default=60)
    p.add_argument("--vms", type=int, default=3)
    p.add_argument("--intervals", type=int, default=8)
    p.add_argument("--checkpoint-every", type=int, default=2)
    p.add_argument("--rate", type=float, default=0.0,
                   help="per-line fault rate for the uniform plan")
    p.add_argument("--crash-prob", type=float, default=0.0,
                   help="per-interval probability of injected process "
                        "death")
    p.add_argument("--crash-after-ops", type=int, default=0,
                   help="die once the N-th journaled merge op lands "
                        "(0 = off)")
    p.add_argument("--max-attempts", type=int, default=5)
    p.add_argument("--stall-timeout", type=float, default=30.0,
                   help="seconds of stream silence before SIGKILL")
    p.add_argument("--check-equivalence", action="store_true",
                   help="replay uninterrupted and compare fingerprints")
    p.set_defaults(func=cmd_supervise)

    p = sub.add_parser(
        "replicate",
        help="replicated recovery tier: streamed journal, heartbeat "
             "failover, partition chaos",
    )
    p.add_argument("--workdir", required=True,
                   help="cluster directory (primary + replica workdirs)")
    p.add_argument("--app", default="moses", choices=list(TAILBENCH_APPS))
    p.add_argument("--mode", default="pageforge",
                   choices=list(recoverable_backends()))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--pages-per-vm", type=int, default=60)
    p.add_argument("--vms", type=int, default=3)
    p.add_argument("--intervals", type=int, default=8)
    p.add_argument("--checkpoint-every", type=int, default=2)
    p.add_argument("--rate", type=float, default=0.0,
                   help="per-line fault rate for the uniform plan")
    p.add_argument("--crash-prob", type=float, default=0.0,
                   help="per-interval probability of primary death")
    p.add_argument("--kill-after-ops", type=int, default=0,
                   help="kill the primary once the N-th journaled op "
                        "lands (0 = off)")
    p.add_argument("--net-drop", type=float, default=0.0,
                   help="per-frame replication drop rate")
    p.add_argument("--net-duplicate", type=float, default=0.0,
                   help="per-frame replication duplicate rate")
    p.add_argument("--net-reorder", type=float, default=0.0,
                   help="per-frame replication reorder rate")
    p.add_argument("--net-lag", type=int, default=0,
                   help="store-and-forward depth per link (frames)")
    p.add_argument("--partition-prob", type=float, default=0.0,
                   help="per-frame probability a link partitions")
    p.add_argument("--partition-frames", type=int, default=16,
                   help="frames lost per partition before rejoin")
    p.add_argument("--max-attempts", type=int, default=5)
    p.add_argument("--stall-timeout", type=float, default=30.0,
                   help="seconds of stream silence before SIGKILL")
    p.add_argument("--check-equivalence", action="store_true",
                   help="replay uninterrupted and compare fingerprints")
    p.add_argument("--worker", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--attempt", type=int, default=0,
                   help=argparse.SUPPRESS)
    p.add_argument("--connect", default="",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("demo", help="30-second merge demo")
    p.add_argument("--vms", type=int, default=2)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser(
        "verify",
        help="correctness gate: goldens, differential oracle, invariants",
    )
    p.add_argument("--goldens", default="tests/goldens/figures.json",
                   help="golden fingerprint file to check or regenerate")
    p.add_argument("--regen", action="store_true",
                   help="regenerate the golden file instead of checking")
    p.add_argument("--no-goldens", dest="goldens_check",
                   action="store_false",
                   help="skip the golden-figure check")
    p.add_argument("--differential", action="store_true",
                   help="also run the differential oracle harness")
    p.add_argument("--invariants", action="store_true",
                   help="also run audited ServerSystem runs (all modes)")
    p.add_argument("--app", default="moses", choices=list(TAILBENCH_APPS))
    p.add_argument("--seed", type=int, default=0,
                   help="first seed for differential/invariant runs")
    p.add_argument("--runs", type=int, default=5,
                   help="number of differential seeds")
    p.add_argument("--json", help="write computed fingerprints to a file")
    p.set_defaults(func=cmd_verify)

    add_bench_parser(sub)
    add_serve_parser(sub)
    add_loadgen_parser(sub)

    p = sub.add_parser("config", help="print Table 2 configuration")
    p.set_defaults(func=cmd_config)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
