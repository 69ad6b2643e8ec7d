"""Open-loop load harness: Poisson arrivals against a running server.

``wrk_runner``-style methodology:

* **open loop** — arrivals are drawn from a seeded Poisson process at
  the target QPS *before* the run starts, and a request is launched at
  its scheduled instant whether or not earlier requests have returned.
  Latency is measured from the *scheduled* arrival, so client-side
  queueing (the collapse signature of an overloaded closed-loop
  harness) shows up as latency instead of silently throttling offered
  load;
* **bimodal service mix** — a seeded fraction of requests are heavy
  scan ops, the rest light reads, reproducing the merge-vs-request
  service-time tension the serving tier exists to absorb;
* **exact accounting** — every scheduled request resolves to exactly
  one of accepted / shed / failed (client-side transport errors are
  counted separately and expected to be zero on loopback), and the
  client ledger is cross-checked against the server's admission
  counters;
* **per-run result directories** — spec, summary, and the raw
  per-request table are published with the atomic tmp/fsync/rename
  helpers, so a SIGKILL mid-export never leaves a torn results file.

Percentiles (p50/p90/p95/p99/p99.9) come from the shared
:func:`repro.sim.metrics.summarize` helper.
"""

import http.client
import json
import queue
import socket
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Optional

from dataclasses import replace

from repro.analysis.export import rows_to_csv
from repro.common.io import atomic_write_text
from repro.common.rng import DeterministicRNG
from repro.scenarios import get_scenario
from repro.serve.deadline import DEADLINE_HEADER
from repro.serve.server import TENANT_HEADER
from repro.sim.metrics import summarize

__all__ = [
    "LoadGenResult",
    "LoadSpec",
    "measure_capacity",
    "run_loadgen",
    "run_overload_check",
]

LATENCY_PERCENTILES = (50, 90, 95, 99, 99.9)


def _connect(host, port, timeout=30):
    """A keep-alive connection with TCP_NODELAY (no Nagle stalls)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


@dataclass(frozen=True)
class LoadSpec:
    """One open-loop run, fully determined by its seed.

    The heavy/light op mix comes from the registered ``scenario``
    (``serve_heavy_frac`` / ``serve_heavy_pages`` / ``serve_light_kind``
    ports on the workload model) unless a field is pinned explicitly;
    ``None`` means "ask the scenario".  The defaults reproduce the
    pre-scenario bimodal split exactly: ``steady_state`` carries the
    old 0.1 / 400 pages / read constants.
    """

    target_qps: float = 200.0
    duration_s: float = 2.0
    seed: int = 2017
    tenants: int = 1
    scenario: str = "steady_state"
    heavy_frac: Optional[float] = None
    heavy_pages: Optional[int] = None
    light_kind: Optional[str] = None
    deadline_ms: int = 1000
    workers: int = 48
    out_dir: Optional[str] = None

    def __post_init__(self):
        get_scenario(self.scenario)  # ValueError lists the registry
        if self.target_qps <= 0 or self.duration_s <= 0:
            raise ValueError("target_qps and duration_s must be positive")
        if self.heavy_frac is not None and not 0.0 <= self.heavy_frac <= 1.0:
            raise ValueError(f"heavy_frac out of [0, 1]: {self.heavy_frac}")
        if self.tenants < 1 or self.workers < 1:
            raise ValueError("tenants and workers must be >= 1")

    def resolved(self):
        """A copy with every ``None`` mix field filled from the scenario."""
        model = get_scenario(self.scenario)()
        return replace(
            self,
            heavy_frac=(model.serve_heavy_frac if self.heavy_frac is None
                        else self.heavy_frac),
            heavy_pages=(model.serve_heavy_pages if self.heavy_pages is None
                         else self.heavy_pages),
            light_kind=(model.serve_light_kind if self.light_kind is None
                        else self.light_kind),
        )


@dataclass
class LoadGenResult:
    """What one run measured, plus the exactness verdicts."""

    spec: Dict[str, object]
    offered: int = 0
    accepted: int = 0
    shed: int = 0
    failed: int = 0
    transport_errors: int = 0
    achieved_qps: float = 0.0
    goodput_qps: float = 0.0
    accepted_over_deadline: int = 0
    latency: Dict[str, float] = field(default_factory=dict)
    service_latency: Dict[str, float] = field(default_factory=dict)
    by_status: Dict[str, int] = field(default_factory=dict)
    server_admission: Dict[str, object] = field(default_factory=dict)
    out_dir: Optional[str] = None

    @property
    def accounting_exact(self):
        """Client ledger balances and matches the server's, exactly."""
        if self.offered != (self.accepted + self.shed + self.failed
                            + self.transport_errors):
            return False
        server = self.server_admission
        if not server:
            return True
        return (
            bool(server.get("balanced"))
            and self.accepted == server.get("accepted")
            and self.shed == server.get("shed")
            and self.failed == server.get("failed")
        )


def _build_schedule(spec):
    """Seeded arrival times, request classes, and tenants — open loop.

    Everything stochastic is drawn up front from named streams so the
    same spec replays the same offered traffic exactly.
    """
    spec = spec.resolved()
    rng = DeterministicRNG(spec.seed, "loadgen")
    arrivals = []
    t = 0.0
    arrival_rng = rng.derive("arrivals")
    while True:
        t += float(arrival_rng.exponential(1.0 / spec.target_qps))
        if t >= spec.duration_s:
            break
        arrivals.append(t)
    class_rng = rng.derive("class")
    tenant_rng = rng.derive("tenant")
    requests = []
    for index, at in enumerate(arrivals):
        heavy = float(class_rng.random()) < spec.heavy_frac
        tenant = f"tenant{int(tenant_rng.integers(0, spec.tenants))}"
        requests.append((index, at, heavy, tenant))
    return requests


class _Client(threading.Thread):
    """One worker: a keep-alive connection draining the dispatch queue."""

    def __init__(self, host, port, spec, work, records, lock):
        super().__init__(daemon=True)
        self.host = host
        self.port = port
        self.spec = spec
        self.work = work
        self.records = records
        self.lock = lock
        self.conn = None

    def _request(self, body, headers):
        if self.conn is None:
            self.conn = _connect(self.host, self.port)
        try:
            self.conn.request("POST", "/v1/workload", body=body,
                              headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
            return response.status, payload
        except Exception:
            # One reconnect attempt: keep-alive sockets can be closed
            # under us across the server's drain boundary.
            try:
                self.conn.close()
            except Exception:
                pass
            self.conn = _connect(self.host, self.port)
            self.conn.request("POST", "/v1/workload", body=body,
                              headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
            return response.status, payload

    def run(self):
        spec = self.spec
        while True:
            item = self.work.get()
            if item is None:
                break
            index, scheduled_abs, heavy, tenant = item
            if heavy:
                body = json.dumps(
                    {"kind": "scan", "pages": spec.heavy_pages}
                )
            else:
                body = json.dumps({"kind": spec.light_kind})
            headers = {
                "Content-Type": "application/json",
                DEADLINE_HEADER: str(spec.deadline_ms),
                TENANT_HEADER: tenant,
            }
            sent = time.monotonic()
            try:
                status, _payload = self._request(body, headers)
                error = ""
            except Exception as exc:
                status = -1
                error = type(exc).__name__
            done = time.monotonic()
            record = {
                "index": index,
                "class": "heavy" if heavy else "light",
                "tenant": tenant,
                "status": status,
                "error": error,
                "latency_s": done - scheduled_abs,
                "service_s": done - sent,
                "queue_s": sent - scheduled_abs,
            }
            with self.lock:
                self.records.append(record)
            self.work.task_done()
        if self.conn is not None:
            try:
                self.conn.close()
            except Exception:
                pass


def run_loadgen(spec, base_url, run_name=None, slices=1, between=None):
    """Drive one open-loop run against ``base_url``; returns the result.

    Latency is wall-clock from the scheduled arrival instant (open-loop
    convention), ``service_s`` from the actual send — the gap between
    them is client-side dispatch queueing.  With ``slices > 1`` the
    schedule goes out in that many equal time slices, and ``between()``
    runs after each slice but the last, with none of this run's requests
    in flight; what it sends stays out of this run's accounting.
    """
    spec = spec.resolved()
    host, port = _parse_base_url(base_url)
    admission_before = _fetch_admission(base_url)
    schedule = _build_schedule(spec)
    work = queue.Queue()
    records = []
    lock = threading.Lock()
    workers = [
        _Client(host, port, spec, work, records, lock)
        for _ in range(spec.workers)
    ]
    for worker in workers:
        worker.start()

    slice_s = spec.duration_s / slices
    elapsed = 0.0
    for k in range(slices):
        if k:
            paused = _fetch_admission(base_url)
            between()
            admission_before = _add_counters(admission_before, _admission_delta(
                paused, _fetch_admission(base_url)
            ))
        start = time.monotonic()
        origin = start - k * slice_s
        for index, at, heavy, tenant in schedule:
            if min(int(at // slice_s), slices - 1) != k:
                continue
            delay = (origin + at) - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            work.put((index, origin + at, heavy, tenant))
        work.join()
        elapsed += time.monotonic() - start
    for _ in workers:
        work.put(None)
    for worker in workers:
        worker.join(timeout=5)

    return _summarize_run(spec, records, elapsed, base_url, run_name,
                          admission_before)


def _parse_base_url(base_url):
    trimmed = base_url.split("//", 1)[-1].rstrip("/")
    host, _sep, port = trimmed.partition(":")
    return host, int(port or 80)


def _summarize_run(spec, records, elapsed, base_url, run_name,
                   admission_before):
    result = LoadGenResult(spec=asdict(spec))
    result.offered = len(records)
    deadline_s = spec.deadline_ms / 1e3
    ok_latencies = []
    service_latencies = []
    for record in records:
        status = record["status"]
        result.by_status[str(status)] = (
            result.by_status.get(str(status), 0) + 1
        )
        if status == 200:
            result.accepted += 1
            ok_latencies.append(record["latency_s"])
            service_latencies.append(record["service_s"])
            if record["service_s"] > deadline_s + 0.25:
                # A 200 past its deadline (plus a generous loopback
                # grace) — the server converts late successes to 504,
                # so any count here is a front-end bug, and the
                # overload verdict fails on it.
                result.accepted_over_deadline += 1
        elif status in (429, 503):
            result.shed += 1
        elif status > 0:
            result.failed += 1
        else:
            result.transport_errors += 1
    window = max(elapsed, spec.duration_s)
    result.achieved_qps = result.offered / window
    result.goodput_qps = (
        (result.accepted - result.accepted_over_deadline) / window
    )
    result.latency = summarize(
        ok_latencies, percentiles=LATENCY_PERCENTILES
    )
    result.service_latency = summarize(
        service_latencies, percentiles=LATENCY_PERCENTILES
    )
    result.server_admission = _admission_delta(
        admission_before, _fetch_admission(base_url)
    )
    if spec.out_dir:
        result.out_dir = str(_publish_run(
            spec, result, records, run_name
        ))
    return result


def _fetch_admission(base_url):
    """The server's admission ledger, for the cross-check."""
    host, port = _parse_base_url(base_url)
    try:
        conn = _connect(host, port, timeout=10)
        conn.request("GET", "/v1/metrics")
        response = conn.getresponse()
        snapshot = json.loads(response.read().decode("utf-8"))
        conn.close()
    except Exception:
        return {}
    prefix = "admission/"
    return {
        key[len(prefix):]: value
        for key, value in snapshot.items() if key.startswith(prefix)
    }


#: Snapshot-valued admission keys: carried as-is, not differenced.
_ADMISSION_GAUGES = frozenset({
    "balanced", "draining", "ewma_latency_s", "inflight",
    "inflight_peak",
})


def _admission_delta(before, after):
    """This run's slice of the server's cumulative admission counters."""
    if not after:
        return {}
    out = {}
    for key, value in after.items():
        if key in _ADMISSION_GAUGES or not isinstance(value, int):
            out[key] = value
        else:
            out[key] = value - int(before.get(key, 0))
    return out


def _add_counters(ledger, delta):
    """``ledger`` with ``delta``'s counters added; gauges stay as they are."""
    return {
        key: value + delta.get(key, 0)
        if key not in _ADMISSION_GAUGES and isinstance(value, int) else value
        for key, value in ledger.items()
    }


def _publish_run(spec, result, records, run_name):
    """Write the per-run result directory; every file atomic."""
    name = run_name or f"run.qps{int(spec.target_qps)}-seed{spec.seed}"
    run_dir = Path(spec.out_dir) / name
    run_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        run_dir / "spec.json",
        json.dumps(asdict(spec), indent=2, sort_keys=True),
    )
    summary = {k: v for k, v in vars(result).items() if k != "out_dir"}
    summary["accounting_exact"] = result.accounting_exact
    atomic_write_text(
        run_dir / "summary.json",
        json.dumps(summary, indent=2, sort_keys=True),
    )
    ordered = sorted(records, key=lambda r: r["index"])
    rows_to_csv(ordered, run_dir / "requests.csv")
    return run_dir


# Capacity + overload orchestration -----------------------------------------------


def measure_capacity(base_url, probe_s=1.0, heavy_frac=0.0,
                     heavy_pages=400, light_kind="read", seed=2017,
                     deadline_ms=5000):
    """Closed-loop capacity probe: sequential requests for ``probe_s``.

    Issues the *same* seeded bimodal mix the open-loop run will offer,
    so the measured rate is the service ceiling for that mix — the
    denominator of the machine-independent overload ratios.
    """
    host, port = _parse_base_url(base_url)
    conn = _connect(host, port)
    class_rng = DeterministicRNG(seed, "loadgen").derive("probe")
    heavy_body = json.dumps({"kind": "scan", "pages": heavy_pages})
    light_body = json.dumps({"kind": light_kind})
    headers = {
        "Content-Type": "application/json",
        DEADLINE_HEADER: str(deadline_ms),
    }
    done = 0
    start = time.monotonic()
    while time.monotonic() - start < probe_s:
        heavy = float(class_rng.random()) < heavy_frac
        conn.request("POST", "/v1/workload",
                     body=heavy_body if heavy else light_body,
                     headers=headers)
        response = conn.getresponse()
        response.read()
        if response.status == 200:
            done += 1
    elapsed = time.monotonic() - start
    conn.close()
    return done / elapsed if elapsed > 0 else 0.0


@dataclass
class OverloadVerdict:
    """The gated robustness invariants after one overload run."""

    capacity_qps: float
    overload_factor: float
    goodput_qps: float
    goodput_ratio: float
    goodput_floor: float
    goodput_floor_ok: bool
    accounting_exact: bool
    deadline_violations: int
    result: LoadGenResult

    @property
    def ok(self):
        return (self.goodput_floor_ok and self.accounting_exact
                and self.deadline_violations == 0)


#: The capacity probe and the overload window are each cut into this many
#: slices, run alternately (probe, overload, probe, ...), so a slow
#: stretch of a shared host lands on both sides of the goodput ratio.
OVERLOAD_SLICES = 4


def run_overload_check(server, overload_factor=2.0, probe_s=1.0,
                       duration_s=2.0, goodput_floor=0.5,
                       heavy_frac=0.5, heavy_pages=400,
                       max_target_qps=1200.0, seed=2017, out_dir=None):
    """Measure capacity, overload at ``overload_factor``×, gate.

    ``server`` is a started :class:`~repro.serve.server.MergeServer`.
    The probe and the overload run offer the same heavy/light mix (a
    heavy-leaning one by default, so 2x capacity is *real* overload and
    the shed machinery actually engages).  Both run in
    :data:`OVERLOAD_SLICES` interleaved slices of ``probe_s`` and
    ``duration_s``: the first probe slice sets the offered rate, and
    the capacity is the mean over all probe slices.  Returns an
    :class:`OverloadVerdict`; the ``serve`` bench suite and the CI
    ``serve-overload`` job assert ``verdict.ok``.
    """
    base_url = server.base_url

    def probe():
        return measure_capacity(
            base_url, probe_s=probe_s / OVERLOAD_SLICES,
            heavy_frac=heavy_frac, heavy_pages=heavy_pages, seed=seed,
        )

    rates = [probe()]
    if rates[0] <= 0:
        raise RuntimeError("capacity probe measured zero throughput")
    target = min(rates[0] * overload_factor, max_target_qps)
    spec = LoadSpec(
        target_qps=target, duration_s=duration_s, seed=seed,
        heavy_frac=heavy_frac, heavy_pages=heavy_pages,
        deadline_ms=2000, out_dir=out_dir,
    )
    result = run_loadgen(spec, base_url, slices=OVERLOAD_SLICES,
                         between=lambda: rates.append(probe()))
    capacity = sum(rates) / len(rates)
    # The denominator is what one engine could have served over the
    # window: full capacity, or less when max_target_qps capped the
    # offered load below capacity x factor.
    servable = min(capacity, target / overload_factor)
    goodput_ratio = result.goodput_qps / servable
    return OverloadVerdict(
        capacity_qps=capacity,
        overload_factor=overload_factor,
        goodput_qps=result.goodput_qps,
        goodput_ratio=goodput_ratio,
        goodput_floor=goodput_floor,
        goodput_floor_ok=goodput_ratio >= goodput_floor,
        accounting_exact=result.accounting_exact,
        deadline_violations=result.accepted_over_deadline,
        result=result,
    )
