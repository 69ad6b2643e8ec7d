"""Unit and endpoint tests for the overload-robust serving tier."""

import http.client
import json
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.serve import (
    AdmissionController,
    BreakerOpen,
    ChaosProfile,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    InjectedBackendError,
    MergeServer,
    ServeChaos,
    ServeConfig,
    ShedReason,
    TokenBucket,
    loadgen,
)
from repro.serve.deadline import DEADLINE_HEADER
from repro.serve.server import TENANT_HEADER
from repro.sim.metrics import summarize


class FakeClock:
    """Injectable monotonic clock so no test sleeps."""

    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# Deadlines -----------------------------------------------------------------------


class TestDeadline:
    def test_missing_header_gets_default(self):
        clock = FakeClock()
        d = Deadline.from_header(None, 1.5, 30.0, clock=clock)
        assert d.budget_s == 1.5

    def test_header_clamped_to_max(self):
        d = Deadline.from_header("99000", 1.0, 30.0, clock=FakeClock())
        assert d.budget_s == 30.0

    def test_malformed_header_raises(self):
        with pytest.raises(ValueError):
            Deadline.from_header("soon", 1.0, 30.0, clock=FakeClock())
        with pytest.raises(ValueError):
            Deadline.from_header("-5", 1.0, 30.0, clock=FakeClock())
        with pytest.raises(ValueError):
            Deadline.from_header("0", 1.0, 30.0, clock=FakeClock())

    def test_expiry_and_check(self):
        clock = FakeClock()
        d = Deadline(2.0, clock=clock)
        assert not d.expired
        clock.advance(1.0)
        assert d.remaining() == pytest.approx(1.0)
        d.check("midway")  # no raise
        clock.advance(1.5)
        assert d.expired
        with pytest.raises(DeadlineExceeded, match="midway"):
            d.check("midway")

    def test_header_value_propagates_remaining(self):
        clock = FakeClock()
        d = Deadline(1.0, clock=clock)
        clock.advance(0.4)
        assert int(d.header_value()) == pytest.approx(600, abs=2)
        clock.advance(10.0)
        assert d.header_value() == "1"  # floor, never zero or negative


# Token bucket --------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()
        assert bucket.seconds_until() == pytest.approx(0.1)
        clock.advance(0.2)
        assert bucket.try_take()

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)


# Admission -----------------------------------------------------------------------


def make_admission(clock, **overrides):
    config = replace(ServeConfig(), **overrides)
    return AdmissionController(config, clock=clock)


class TestAdmission:
    def test_exact_accounting_over_mixed_outcomes(self):
        clock = FakeClock()
        adm = make_admission(clock, queue_depth=2)
        assert adm.admit("a") == (True, None, None)
        assert adm.admit("a") == (True, None, None)
        admitted, reason, retry = adm.admit("a")  # window full
        assert not admitted and reason == ShedReason.QUEUE_FULL
        assert retry > 0
        adm.release(0.01, "ok")
        adm.release(0.02, "error")
        s = adm.stats
        assert (s.offered, s.accepted, s.failed, s.shed) == (3, 1, 1, 1)
        assert s.balanced
        assert s.inflight == 0 and s.inflight_peak == 2

    def test_ewma_overload_shedding_arms_past_soft_limit(self):
        clock = FakeClock()
        adm = make_admission(clock, queue_depth=4, slo_latency_s=0.1,
                             ewma_alpha=1.0, soft_queue_frac=0.5)
        # One slow request pushes the EWMA over the SLO...
        adm.admit()
        adm.release(1.0, "ok")
        # ...but an idle server still admits (below the soft limit).
        assert adm.admit()[0]
        assert adm.admit()[0]
        # At the soft limit with a hot EWMA, shed.
        admitted, reason, _ = adm.admit()
        assert not admitted and reason == ShedReason.OVERLOAD
        adm.release(0.01, "ok")
        adm.release(0.01, "ok")
        assert adm.stats.balanced and adm.stats.inflight == 0

    def test_draining_sheds_everything_new(self):
        adm = make_admission(FakeClock())
        adm.begin_drain()
        admitted, reason, _ = adm.admit()
        assert not admitted and reason == ShedReason.DRAINING
        assert adm.stats.balanced

    def test_tenant_rate_limiting_isolated_per_tenant(self):
        clock = FakeClock()
        adm = make_admission(clock, tenant_rate_qps=10.0, tenant_burst=1.0)
        assert adm.admit("a")[0]
        admitted, reason, retry = adm.admit("a")
        assert not admitted and reason == ShedReason.RATE_LIMITED
        assert retry == pytest.approx(0.1)
        assert adm.admit("b")[0]  # tenant b has its own bucket
        assert adm.stats.shed_rate_limited == 1

    def test_shed_admitted_rebalances_ledger(self):
        adm = make_admission(FakeClock())
        adm.admit()
        adm.shed_admitted(ShedReason.BREAKER_OPEN)
        s = adm.stats
        assert s.shed_breaker == 1 and s.inflight == 0 and s.balanced

    def test_wait_idle_blocks_until_release(self):
        adm = make_admission(FakeClock())
        adm.admit()
        done = threading.Event()

        def drain():
            adm.wait_idle(timeout=5.0)
            done.set()

        t = threading.Thread(target=drain, daemon=True)
        t.start()
        assert not done.wait(0.05)
        adm.release(0.01, "ok")
        assert done.wait(2.0)


# Circuit breaker -----------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=3, cooldown_s=1.0, clock=clock)
        for _ in range(2):
            b.acquire()
            b.record_failure()
        b.acquire()
        b.record_success()  # resets the consecutive count
        for _ in range(2):
            b.acquire()
            b.record_failure()
        assert b.state == CircuitBreaker.CLOSED
        b.acquire()
        b.record_failure()
        assert b.state == CircuitBreaker.OPEN and b.trips == 1

    def test_open_rejects_then_halfopen_recovers(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown_s=2.0, clock=clock)
        b.acquire()
        b.record_failure()
        with pytest.raises(BreakerOpen) as exc_info:
            b.acquire()
        assert exc_info.value.retry_after_s == pytest.approx(2.0)
        clock.advance(2.5)
        b.acquire()  # the half-open probe
        assert b.state == CircuitBreaker.HALF_OPEN
        b.record_success()
        assert b.state == CircuitBreaker.CLOSED and b.recoveries == 1

    def test_halfopen_failure_reopens(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown_s=1.0, clock=clock)
        b.acquire()
        b.record_failure()
        clock.advance(1.5)
        b.acquire()
        b.record_failure()
        assert b.state == CircuitBreaker.OPEN and b.trips == 2

    def test_halfopen_probe_slots_are_bounded(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, cooldown_s=1.0,
                           halfopen_probes=1, clock=clock)
        b.acquire()
        b.record_failure()
        clock.advance(1.5)
        b.acquire()
        with pytest.raises(BreakerOpen):
            b.acquire()  # second concurrent probe refused


# Chaos ---------------------------------------------------------------------------


class TestServeChaos:
    def test_deterministic_schedule(self):
        profile = ChaosProfile(seed=7, stall_prob=0.2, error_prob=0.3)

        def run_schedule():
            chaos = ServeChaos(profile, sleeper=lambda s: None)
            outcomes = []
            for _ in range(50):
                try:
                    chaos.before_op("op")
                    outcomes.append("clean-or-stall")
                except InjectedBackendError:
                    outcomes.append("error")
            return outcomes, chaos.stats.stalls, chaos.stats.errors

        assert run_schedule() == run_schedule()

    def test_inactive_profile_never_draws(self):
        chaos = ServeChaos(ChaosProfile(), sleeper=lambda s: None)
        for _ in range(10):
            chaos.before_op("op")
        assert chaos.stats.stalls == 0 and chaos.stats.errors == 0

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            ChaosProfile(stall_prob=0.8, error_prob=0.5)


# summarize percentiles -----------------------------------------------------------


class TestSummarizePercentiles:
    def test_default_shape_unchanged(self):
        out = summarize([1.0, 2.0, 3.0])
        assert set(out) == {"count", "mean", "min", "max", "p95"}

    def test_requested_percentiles(self):
        out = summarize(range(1000), percentiles=(50, 99, 99.9))
        assert out["p50"] == 500
        assert out["p99"] == 990
        assert out["p99.9"] == 999

    def test_empty_yields_zeroed_keys(self):
        out = summarize([], percentiles=(50, 99.9))
        assert out["count"] == 0 and out["p99.9"] == 0.0


# Overload verdict ----------------------------------------------------------------


class TestOverloadVerdictDeadlineGate:
    """The deadline gate must be able to fail on client-observed 200s."""

    @staticmethod
    def _verdict(monkeypatch, late_service_s):
        def synthetic_run(spec, base_url, **slicing):
            records = [
                {"status": 200, "latency_s": 0.01, "service_s": 0.01}
                for _ in range(399)
            ]
            records.append({"status": 200, "latency_s": late_service_s,
                            "service_s": late_service_s})
            return loadgen._summarize_run(
                spec, records, spec.duration_s, base_url, None, {},
            )

        monkeypatch.setattr(loadgen, "measure_capacity",
                            lambda *args, **kwargs: 100.0)
        monkeypatch.setattr(loadgen, "run_loadgen", synthetic_run)
        monkeypatch.setattr(loadgen, "_fetch_admission", lambda url: {})
        server = SimpleNamespace(base_url="http://127.0.0.1:1")
        return loadgen.run_overload_check(server, duration_s=2.0)

    def test_late_success_fails_the_verdict(self, monkeypatch):
        # 2 s deadline + 0.25 s grace: a 200 served in 3 s is a violation.
        verdict = self._verdict(monkeypatch, late_service_s=3.0)
        assert verdict.goodput_floor_ok and verdict.accounting_exact
        assert verdict.deadline_violations == 1
        assert not verdict.ok

    def test_on_time_successes_pass(self, monkeypatch):
        verdict = self._verdict(monkeypatch, late_service_s=0.5)
        assert verdict.deadline_violations == 0
        assert verdict.ok


# HTTP endpoints ------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(port=0, n_vms=2, pages_per_vm=40)
    srv = MergeServer(config).start()
    yield srv
    srv.close()


def request(srv, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=10)
    h = {"Content-Type": "application/json"}
    h.update(headers or {})
    payload = json.dumps(body) if isinstance(body, dict) else body
    conn.request(method, path, body=payload, headers=h)
    response = conn.getresponse()
    data = json.loads(response.read().decode("utf-8"))
    conn.close()
    return response.status, data, dict(response.getheaders())


class TestEndpoints:
    def test_health_and_readiness(self, server):
        assert request(server, "GET", "/healthz")[0] == 200
        status, data, _ = request(server, "GET", "/readyz")
        assert status == 200 and data["status"] == "ready"

    def test_unknown_paths_404(self, server):
        assert request(server, "GET", "/nope")[0] == 404
        assert request(server, "POST", "/v1/nope")[0] == 404

    def test_workload_scan_and_read(self, server):
        status, data, _ = request(
            server, "POST", "/v1/workload",
            {"kind": "scan", "pages": 50},
        )
        assert status == 200
        assert data["result"]["pages_scanned"] == 50
        assert data["deadline_remaining_ms"] > 0
        status, data, _ = request(
            server, "POST", "/v1/workload", {"kind": "read"},
        )
        assert status == 200 and len(data["result"]["head"]) == 16

    def test_bad_json_body_is_400_before_admission(self, server):
        before = server.admission.stats.offered
        status, data, _ = request(
            server, "POST", "/v1/workload", "{not json",
        )
        assert status == 400
        assert server.admission.stats.offered == before

    def test_bad_deadline_is_400_before_admission(self, server):
        before = server.admission.stats.offered
        status, _, _ = request(
            server, "POST", "/v1/workload", {"kind": "read"},
            headers={DEADLINE_HEADER: "yesterday"},
        )
        assert status == 400
        assert server.admission.stats.offered == before

    def test_unknown_kind_is_400_and_counted_failed(self, server):
        failed = server.admission.stats.failed_error
        status, _, _ = request(
            server, "POST", "/v1/workload", {"kind": "warp"},
        )
        assert status == 400
        assert server.admission.stats.failed_error == failed + 1
        assert server.admission.stats.balanced

    def test_admin_scan_rate_roundtrip(self, server):
        status, data, _ = request(
            server, "POST", "/v1/admin/scan-rate", {"pages_to_scan": 321},
        )
        assert status == 200 and data["result"]["scan_rate"] == 321
        assert server.app.scan_rate == 321
        assert request(
            server, "POST", "/v1/admin/scan-rate", {},
        )[0] == 400

    def test_admin_spawn_vm(self, server):
        n_before = len(server.app.host.hypervisor.vms)
        status, data, _ = request(
            server, "POST", "/v1/admin/spawn-vm", {"pages": 8},
        )
        assert status == 200
        assert len(server.app.host.hypervisor.vms) == n_before + 1

    def test_admin_unknown_backend_is_400(self, server):
        status, data, _ = request(
            server, "POST", "/v1/admin/backend", {"backend": "nope"},
        )
        assert status == 400 and "unknown merge backend" in data["error"]

    def test_metrics_snapshot_is_control_plane(self, server):
        offered = server.admission.stats.offered
        status, data, _ = request(server, "GET", "/v1/metrics")
        assert status == 200
        assert data["admission/offered"] == offered  # not admitted itself
        assert "breaker/state" in data and "latency/count" in data

    def test_accounting_balanced_after_everything(self, server):
        assert server.admission.stats.balanced


class TestRateLimitOverHTTP:
    def test_429_with_retry_after(self):
        config = ServeConfig(port=0, n_vms=0, pages_per_vm=8,
                             tenant_rate_qps=0.5, tenant_burst=1.0)
        srv = MergeServer(config).start()
        try:
            ok = request(
                srv, "POST", "/v1/admin/scan-rate", {"pages_to_scan": 9},
                headers={TENANT_HEADER: "t1"},
            )
            assert ok[0] == 200
            status, data, headers = request(
                srv, "POST", "/v1/admin/scan-rate", {"pages_to_scan": 9},
                headers={TENANT_HEADER: "t1"},
            )
            assert status == 429
            assert data["reason"] == ShedReason.RATE_LIMITED
            assert float(headers["Retry-After"]) > 0
            assert srv.admission.stats.balanced
        finally:
            srv.close()


class TestBackendSwitch:
    def test_live_switch_preserves_content_and_remerges(self):
        config = ServeConfig(port=0, n_vms=2, pages_per_vm=40)
        srv = MergeServer(config).start()
        try:
            before = request(
                srv, "POST", "/v1/workload", {"kind": "read"},
            )[1]["result"]
            status, data, _ = request(
                srv, "POST", "/v1/admin/backend", {"backend": "esx"},
            )
            assert status == 200
            assert data["result"]["vms_moved"] == 2
            assert srv.app.host.backend == "esx"
            after = request(
                srv, "POST", "/v1/workload", {"kind": "read"},
            )[1]["result"]
            # Same guest-visible bytes through the new backend.
            assert after["head"] == before["head"]
            # The new merger re-discovers duplicates from scratch.
            scan = request(
                srv, "POST", "/v1/workload",
                {"kind": "scan", "pages": 1000},
            )[1]["result"]
            assert scan["merges"] > 0
        finally:
            srv.close()
