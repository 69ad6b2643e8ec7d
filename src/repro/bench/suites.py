"""The named benchmark suites.

Each suite times one hot path and returns a list of
:class:`~repro.bench.harness.Metric`.  Where a scalar reference
implementation exists, the suite measures it in the same process and
emits a ``*.speedup_vs_scalar`` ratio — those ratios are the gated
metrics (``gate=True``), because they cancel out host speed and stay
comparable between the committed baseline and any CI runner.

Sizing: every suite takes ``quick`` — the CI smoke tier trims working
sets and measurement windows so a full ``--quick`` run finishes in well
under a minute.
"""

import time

import numpy as np

from repro.bench.fixtures import build_scan_fleet, churn_tail
from repro.bench.harness import Metric, measure_once_ns, measure_op_ns
from repro.bench.scalar import ScalarKSMDaemon
from repro.common.config import KSMConfig
from repro.common.units import PAGE_BYTES
from repro.ecc.hamming import _encode_words_swar, encode_pages
from repro.ksm import compare as ksm_compare
from repro.ksm.compare import compare_pages, compare_pages_scalar, pages_identical
from repro.ksm.daemon import KSMDaemon
from repro.ksm.jhash import KSM_CHECKSUM_INITVAL, jhash2, jhash2_batch
from repro.ksm.rbtree import ContentRBTree, RBNode
from repro.sim.engine import EventQueue

#: Suite registry: name -> callable(quick) -> [Metric].  Order matters:
#: ``repro bench`` runs them in registration order, cheap micro suites
#: first, whole-subsystem runs (fleet, replication, serve, scenarios)
#: last.
SUITES = {}


def suite(name):
    def register(fn):
        SUITES[name] = fn
        return fn
    return register


def run_suites(names, quick):
    """Run the selected suites; returns their metrics in suite order."""
    metrics = []
    for name in names:
        metrics.extend(SUITES[name](quick))
    return metrics


def _tail_divergent_pages(n_pages, prefix_bytes=3584, seed=2017):
    """(N, PAGE_BYTES) uint8 pages sharing a long common prefix.

    Mirrors the same-role-VM content shape the fleet fixture uses: the
    comparison cost of ordering two pages is dominated by the shared
    prefix, which is the realistic (worst) case for the compare path.
    """
    rng = np.random.default_rng(seed)
    pages = np.tile(
        rng.integers(0, 256, size=PAGE_BYTES, dtype=np.uint8), (n_pages, 1)
    )
    tail = rng.integers(
        0, 256, size=(n_pages, PAGE_BYTES - prefix_bytes), dtype=np.uint8
    )
    # Stamp a distinct row index so every page is unique even if the
    # random tails collide.
    tail[:, :8] = np.frombuffer(
        np.arange(n_pages, dtype=np.int64).tobytes(), dtype=np.uint8
    ).reshape(n_pages, 8)
    pages[:, prefix_bytes:] = tail
    return pages


# SECDED encode ---------------------------------------------------------------


@suite("secded_encode")
def bench_secded_encode(quick):
    """Batch GF(2) table encode vs the per-word SWAR reference."""
    n_pages = 64 if quick else 384
    pages = _tail_divergent_pages(n_pages)
    batch_ns = measure_op_ns(
        lambda: encode_pages(pages), ops_per_call=n_pages,
        min_time_s=0.1 if quick else 0.4,
    )
    words = np.ascontiguousarray(pages[0]).view(np.uint64)
    swar_ns = measure_op_ns(
        lambda: _encode_words_swar(words),
        min_time_s=0.1 if quick else 0.4,
    )
    return [
        Metric("secded_encode.batch_ns_per_page", batch_ns, "ns/page",
               higher_is_better=False),
        Metric("secded_encode.batch_pages_per_s", 1e9 / batch_ns, "pages/s"),
        Metric("secded_encode.swar_ns_per_page", swar_ns, "ns/page",
               higher_is_better=False),
        Metric("secded_encode.speedup_vs_scalar", swar_ns / batch_ns, "x",
               gate=True),
    ]


# Page comparison -------------------------------------------------------------


@suite("page_compare")
def bench_page_compare(quick):
    """memcmp-order and equality: bytes fast path vs chunked numpy."""
    n_pairs = 128 if quick else 512
    pages = _tail_divergent_pages(2 * n_pairs)
    arrays = [pages[i] for i in range(2 * n_pairs)]
    pairs_b = [
        (pages[2 * i].tobytes(), pages[2 * i + 1].tobytes())
        for i in range(n_pairs)
    ]
    equal = [(a, bytes(a)) for a, _b in pairs_b[:64]]
    min_time = 0.1 if quick else 0.4

    def run_miss():
        ksm_compare._PAIR_MEMO.clear()
        for a, b in pairs_b:
            compare_pages(a, b)

    def run_hit():
        for a, b in pairs_b:
            compare_pages(a, b)

    def run_equal():
        for a, b in equal:
            pages_identical(a, b)

    def run_scalar():
        for i in range(n_pairs):
            compare_pages_scalar(arrays[2 * i], arrays[2 * i + 1])

    miss_ns = measure_op_ns(run_miss, ops_per_call=n_pairs,
                            min_time_s=min_time)
    run_hit()  # warm the pair memo
    hit_ns = measure_op_ns(run_hit, ops_per_call=n_pairs, min_time_s=min_time)
    equal_ns = measure_op_ns(run_equal, ops_per_call=len(equal),
                             min_time_s=min_time)
    scalar_ns = measure_op_ns(run_scalar, ops_per_call=n_pairs,
                              min_time_s=min_time)
    return [
        Metric("page_compare.miss_ns_per_cmp", miss_ns, "ns/cmp",
               higher_is_better=False),
        Metric("page_compare.hit_ns_per_cmp", hit_ns, "ns/cmp",
               higher_is_better=False),
        Metric("page_compare.identical_ns_per_cmp", equal_ns, "ns/cmp",
               higher_is_better=False),
        Metric("page_compare.scalar_ns_per_cmp", scalar_ns, "ns/cmp",
               higher_is_better=False),
        Metric("page_compare.speedup_vs_scalar", scalar_ns / miss_ns, "x",
               gate=True),
    ]


# Hash keys -------------------------------------------------------------------


@suite("hash_key")
def bench_hash_key(quick):
    """jhash2 checksum batching and ECC hash-key (minikey) generation."""
    from repro.core.hashkey import ecc_hash_key

    n_pages = 96 if quick else 384
    pages = _tail_divergent_pages(n_pages)
    rows = np.ascontiguousarray(pages[:, :1024]).view(np.uint32)
    min_time = 0.1 if quick else 0.4
    batch_ns = measure_op_ns(
        lambda: jhash2_batch(rows, KSM_CHECKSUM_INITVAL),
        ops_per_call=n_pages, min_time_s=min_time,
    )
    scalar_ns = measure_op_ns(
        lambda: jhash2(rows[0], KSM_CHECKSUM_INITVAL), min_time_s=min_time,
    )
    key_pages = [pages[i] for i in range(min(n_pages, 64))]

    def run_keys():
        for page in key_pages:
            ecc_hash_key(page)

    key_ns = measure_op_ns(run_keys, ops_per_call=len(key_pages),
                           min_time_s=min_time)
    return [
        Metric("hash_key.jhash_batch_ns_per_page", batch_ns, "ns/page",
               higher_is_better=False),
        Metric("hash_key.jhash_scalar_ns_per_page", scalar_ns, "ns/page",
               higher_is_better=False),
        Metric("hash_key.jhash_speedup_vs_scalar", scalar_ns / batch_ns, "x",
               gate=True),
        Metric("hash_key.ecc_key_ns_per_page", key_ns, "ns/page",
               higher_is_better=False),
        Metric("hash_key.ecc_keys_per_s", 1e9 / key_ns, "keys/s"),
    ]


# Scan Table walk -------------------------------------------------------------


@suite("scan_table_walk")
def bench_scan_table_walk(quick):
    """Content-tree walks: inlined bytes fast path vs scalar comparator."""
    n_nodes = 256 if quick else 1024
    n_probes = 128 if quick else 512
    pages = _tail_divergent_pages(n_nodes + n_probes)
    node_bytes = [pages[i].tobytes() for i in range(n_nodes)]
    probe_arrays = [pages[n_nodes + i] for i in range(n_probes)]
    probe_bytes = [a.tobytes() for a in probe_arrays]
    min_time = 0.1 if quick else 0.4

    fast_tree = ContentRBTree("bench-fast")
    for content in node_bytes:
        fast_tree.insert(RBNode(lambda c=content: c))
    scalar_tree = ContentRBTree("bench-scalar", compare=compare_pages_scalar)
    for i in range(n_nodes):
        scalar_tree.insert(RBNode(lambda a=pages[i]: a))

    def run_fast():
        for probe in probe_bytes:
            fast_tree.walk(probe, collect_path=False)

    def run_scalar():
        for probe in probe_arrays:
            scalar_tree.walk(probe)

    run_fast()  # warm the pair memo, as a steady-state pass would
    fast_ns = measure_op_ns(run_fast, ops_per_call=n_probes,
                            min_time_s=min_time)
    scalar_ns = measure_op_ns(run_scalar, ops_per_call=n_probes,
                              min_time_s=min_time, max_calls=50)
    return [
        Metric("scan_table_walk.ns_per_walk", fast_ns, "ns/walk",
               higher_is_better=False),
        Metric("scan_table_walk.walks_per_s", 1e9 / fast_ns, "walks/s"),
        Metric("scan_table_walk.scalar_ns_per_walk", scalar_ns, "ns/walk",
               higher_is_better=False),
        Metric("scan_table_walk.speedup_vs_scalar", scalar_ns / fast_ns, "x",
               gate=True),
    ]


# Event queue -----------------------------------------------------------------


@suite("event_queue")
def bench_event_queue(quick):
    """Schedule/dispatch churn, per-call and bulk-loaded."""
    n_events = 20_000 if quick else 100_000
    times = np.random.default_rng(7).random(n_events).tolist()
    min_time = 0.1 if quick else 0.4

    def noop():
        pass

    def run_percall():
        q = EventQueue()
        schedule = q.schedule
        for t in times:
            schedule(t, noop)
        q.run()

    def run_batch():
        q = EventQueue()
        q.schedule_batch((t, noop, ()) for t in times)
        q.run()

    percall_ns = measure_op_ns(run_percall, ops_per_call=n_events,
                               min_time_s=min_time)
    batch_ns = measure_op_ns(run_batch, ops_per_call=n_events,
                             min_time_s=min_time)
    return [
        Metric("event_queue.ns_per_event", percall_ns, "ns/event",
               higher_is_better=False),
        Metric("event_queue.events_per_s", 1e9 / percall_ns, "events/s"),
        Metric("event_queue.batch_ns_per_event", batch_ns, "ns/event",
               higher_is_better=False),
    ]


# Steady-state scan -----------------------------------------------------------


def _scan_throughput(daemon_cls, fleets, warmup_intervals,
                     measure_intervals):
    """Steady-state pages scanned per CPU-second over ``fleets``.

    ``fleets`` yields ``(hypervisor, churn_pages)`` fixtures; each gets
    its own daemon, warmed for ``warmup_intervals`` and then measured
    for ``measure_intervals``, and the rate pools every fleet's pages
    and CPU time.  Only the ``scan_pages`` calls are timed; churn writes
    between intervals model guest activity and are excluded, exactly as
    the paper's scan-rate numbers exclude guest work.  A *fixed*
    interval count (rather than a time window) means the vectorized and
    scalar daemons measure bit-identical work, which keeps their ratio
    stable across runs — it feeds a CI gate.
    """
    budget = 1000
    pages = 0
    scan_s = 0.0
    for hypervisor, churn_pages in fleets:
        daemon = daemon_cls(
            hypervisor,
            KSMConfig(pages_to_scan=budget, hash_bytes=PAGE_BYTES),
        )
        stamp = 0
        for _ in range(warmup_intervals):
            stamp += 1
            churn_tail(hypervisor, churn_pages, stamp)
            daemon.scan_pages(budget)
        for _ in range(measure_intervals):
            stamp += 1
            churn_tail(hypervisor, churn_pages, stamp)
            t0 = time.process_time()
            pages += daemon.scan_pages(budget).pages_scanned
            scan_s += time.process_time() - t0
    return pages / scan_s


@suite("steady_state_scan")
def bench_steady_state_scan(quick):
    """End-to-end daemon scan rate, vectorized vs scalar reference.

    The gated ``speedup_vs_scalar`` ratio is the PR's headline number:
    both daemons run the same Algorithm 1 over identical fleets in the
    same process, so the ratio isolates the hot-path implementations.
    """
    warmup = 3 if quick else 5
    intervals = 4 if quick else 10
    vectorized = _scan_throughput(
        KSMDaemon, [build_scan_fleet()], warmup, intervals
    )
    scalar = _scan_throughput(
        ScalarKSMDaemon, [build_scan_fleet()], warmup, intervals
    )
    return [
        Metric("steady_state_scan.pages_per_s", vectorized, "pages/s"),
        Metric("steady_state_scan.scalar_pages_per_s", scalar, "pages/s"),
        Metric("steady_state_scan.speedup_vs_scalar", vectorized / scalar,
               "x", gate=True),
    ]


# Fleet pipeline --------------------------------------------------------------


@suite("fleet")
def bench_fleet(quick):
    """Sharded fleet pipeline: shard cost, reduce cost, determinism bit.

    The gated metric is ``parallel_fingerprint_equal`` — the fleet
    layer's headline property as a CI bit: an in-process sequential run
    and a two-worker pooled run of the same spec must reduce to
    bit-identical fingerprints.  ``scan_pages_per_s`` drives the shared
    per-shard scan fixture (:func:`build_shard_scan_fleet`), so the
    fleet tier's scan cost is measured with the exact churn model the
    single-host ``steady_state_scan`` suite uses.
    """
    from repro.bench.fixtures import build_shard_scan_fleet
    from repro.fleet import (
        FleetSpec,
        reduce_shards,
        run_fleet,
        run_shard,
        shard_tasks,
    )

    n_shards = 2 if quick else 4
    spec = FleetSpec.uniform(
        n_shards, backend="ksm",
        n_vms=2 if quick else 3,
        pages_per_vm=40 if quick else 80,
        duration_s=0.04 if quick else 0.08,
        warmup_s=0.04 if quick else 0.08,
    )
    tasks = shard_tasks(spec)
    results = []

    def run_all_shards():
        results.clear()
        results.extend(run_shard(task) for task in tasks)

    seq_ns = measure_once_ns(run_all_shards)
    reduce_ns = measure_op_ns(
        lambda: reduce_shards(spec, results),
        min_time_s=0.05 if quick else 0.2,
    )
    sequential = reduce_shards(spec, results)
    pooled = run_fleet(spec, workers=2)
    fingerprints_equal = float(
        sequential.fingerprint == pooled.fingerprint
    )

    # Per-shard steady scan over the shared churn model.
    scan_rate = _scan_throughput(
        KSMDaemon,
        (
            build_shard_scan_fleet(
                host_id, fleet_seed=spec.seed,
                n_vms=2 if quick else 4,
                pages_per_vm=100 if quick else 250,
            )
            for host_id in range(2)
        ),
        warmup_intervals=2, measure_intervals=2 if quick else 4,
    )

    return [
        Metric("fleet.shard_run_ns", seq_ns / n_shards, "ns/shard",
               higher_is_better=False),
        Metric("fleet.shards_per_s", 1e9 * n_shards / seq_ns, "shards/s"),
        Metric("fleet.reduce_ns_per_shard", reduce_ns / n_shards,
               "ns/shard", higher_is_better=False),
        Metric("fleet.scan_pages_per_s", scan_rate, "pages/s"),
        Metric("fleet.parallel_fingerprint_equal", fingerprints_equal,
               "bool", gate=True),
    ]


# Replication tier --------------------------------------------------------------


@suite("replication")
def bench_replication(quick):
    """Journal streaming + failover: lag, failover latency, RTO.

    Two in-process sessions: a clean one for steady-state streaming
    cost and replica lag, and a primary-kill one for failover latency
    (crash -> promoted replica resumed) and recovery-time-objective
    (crash -> run completed on the promoted node).  The gated metric is
    ``failover_equivalent`` — a determinism bit, not a timing: the
    failed-over run's fingerprint must match the uninterrupted
    reference on every host, or the replication tier is broken.
    """
    import tempfile

    from repro.faults.plan import FaultPlan
    from repro.recovery import ReplicationSession, RunSpec

    spec = RunSpec(
        app="moses", mode="ksm", seed=3,
        pages_per_vm=24 if quick else 48, n_vms=3,
        intervals=3 if quick else 6, checkpoint_every=2,
        plan=FaultPlan(seed=3),
    )

    with tempfile.TemporaryDirectory() as workdir:
        session = ReplicationSession(spec, workdir, n_replicas=2)
        clean_ns = measure_once_ns(lambda: session.run())
        rep = session.monitor.snapshot()
    records = max(1, rep["records_streamed"])
    stream_ns = clean_ns / records
    lag_p95 = rep["lag_records"]["p95"]

    kill_lsn = max(1, records // 2)
    holder = {}

    def run_failover():
        with tempfile.TemporaryDirectory() as workdir:
            failover = ReplicationSession(spec, workdir, n_replicas=2)
            holder["out"] = failover.run(
                kill_at_lsns=[kill_lsn], check_equivalence=True
            )

    rto_ns = measure_once_ns(run_failover)
    out = holder["out"]
    failover_s = out["replication"]["failover_latency_s"]["max"]
    equivalent = float(out["equivalence"]["equivalent"])
    return [
        Metric("replication.stream_ns_per_record", stream_ns, "ns/record",
               higher_is_better=False),
        Metric("replication.steady_lag_p95_records", lag_p95, "records",
               higher_is_better=False),
        Metric("replication.failover_latency_ns", failover_s * 1e9, "ns",
               higher_is_better=False),
        Metric("replication.rto_ns", rto_ns, "ns", higher_is_better=False),
        Metric("replication.failover_equivalent", equivalent, "bool",
               gate=True),
    ]


# Serving tier ----------------------------------------------------------------


@suite("serve")
def bench_serve(quick):
    """Overload robustness of the live front-end at 2x capacity.

    A real server on an ephemeral port takes an open-loop Poisson run
    at twice its own measured capacity (probed with the same bimodal
    heavy/light mix, so the overload is genuine).  Every gated metric
    is a machine-independent bit or ratio:

    * ``accounting_exact`` — offered == accepted + shed + failed on
      both the client and server ledgers;
    * ``zero_deadline_violations`` — the load generator received no
      200 past its deadline (late successes become 504s before the
      status line);
    * ``goodput_floor_ok`` — goodput under overload stays above the
      floor fraction of what the server could have served;
    * ``auditor_clean`` — overload never corrupted simulator state.
    """
    from repro.serve import MergeServer, ServeConfig, run_overload_check
    from repro.verify.invariants import InvariantAuditor

    auditor = InvariantAuditor()
    config = ServeConfig(port=0, n_vms=2, pages_per_vm=40)
    server = MergeServer(config, auditor=auditor).start()
    try:
        # The quick tier keeps the full probe/run windows: shorter
        # ones leave the goodput ratio without statistical margin
        # over the floor, and a gated bit must not flake.
        verdict = run_overload_check(
            server, overload_factor=2.0,
            probe_s=1.0 if quick else 1.5,
            duration_s=2.0 if quick else 3.0,
            heavy_frac=0.5, heavy_pages=200 if quick else 400,
        )
    finally:
        server.drain(timeout=15)
    result = verdict.result
    p99_s = result.latency.get("p99", 0.0)
    return [
        Metric("serve.capacity_qps", verdict.capacity_qps, "req/s"),
        Metric("serve.goodput_qps", verdict.goodput_qps, "req/s"),
        Metric("serve.goodput_ratio", verdict.goodput_ratio, "frac"),
        Metric("serve.p99_latency_ns", p99_s * 1e9, "ns",
               higher_is_better=False),
        Metric("serve.goodput_floor_ok",
               float(verdict.goodput_floor_ok), "bool", gate=True),
        Metric("serve.accounting_exact",
               float(result.accounting_exact), "bool", gate=True),
        Metric("serve.zero_deadline_violations",
               float(verdict.deadline_violations == 0), "bool",
               gate=True),
        Metric("serve.auditor_clean", float(auditor.clean), "bool",
               gate=True),
    ]


# Scenario registry / serverless cold-start ----------------------------------


@suite("scenarios")
def bench_scenarios(quick):
    """Serverless cold-start savings vs merge latency, hinted vs not.

    Runs the :func:`~repro.scenarios.run_cold_start_study` twice-built
    sandbox fleet (hinted and unhinted) under the invariant auditor and
    gates the scenario tier's headline numbers:

    * ``cold_start_savings_frac`` — fraction of the reclaimable
      footprint the hinted fast path recovers in its *first* scan
      interval (the cold-start window);
    * ``hint_speedup`` — unhinted/hinted intervals-to-steady-state;
    * ``auditor_clean`` / ``footprints_equal`` — determinism bits:
      hinted merging obeys every frame-accounting invariant and
      converges to the exact same footprint as the unhinted run.

    All four are seed-pinned bits or deterministic interval counts —
    machine speed never enters them, so they are safe CI gates.
    """
    from repro.scenarios import available_scenarios, run_cold_start_study

    n_sandboxes = 4 if quick else 8
    pages_per_vm = 64 if quick else 96
    holder = {}

    def run():
        holder["study"] = run_cold_start_study(
            backend="ksm", n_sandboxes=n_sandboxes,
            pages_per_vm=pages_per_vm, seed=2017,
        )

    elapsed = measure_once_ns(run)
    study = holder["study"]
    accepted_frac = (
        study.hints_accepted / study.hints_offered
        if study.hints_offered else 0.0
    )
    return [
        Metric("scenarios.registered", float(len(available_scenarios())),
               "count"),
        Metric("scenarios.study_run_ns", elapsed, "ns",
               higher_is_better=False),
        Metric("scenarios.serverless_cold_start_savings_frac",
               study.cold_start_savings_frac, "frac", gate=True),
        Metric("scenarios.serverless_unhinted_savings_frac",
               study.unhinted_cold_start_savings_frac, "frac"),
        Metric("scenarios.serverless_hint_speedup", study.hint_speedup,
               "x", gate=True),
        Metric("scenarios.hints_accepted_frac", accepted_frac, "frac"),
        Metric("scenarios.auditor_clean", float(study.auditor_clean),
               "bool", gate=True),
        Metric("scenarios.footprints_equal",
               float(study.footprints_equal), "bool", gate=True),
    ]
