"""Server lifecycle: graceful drain, SIGTERM, breaker trip + recovery.

These tests exercise the full process-level contract the front-end
makes to its load balancer and its operator:

* readiness flips false *before* the listen socket closes, so routing
  stops while in-flight work still completes;
* a drain finishes every admitted request, sheds everything new, and
  publishes the final metrics snapshot atomically (no ``*.tmp`` debris);
* injected backend chaos (stalls, errors) trips the circuit breaker,
  the breaker sheds during cooldown, and a half-open probe recovers —
  all without ever corrupting simulator state (the auditor stays
  clean throughout).
"""

import http.client
import json
import os
import signal
import threading
import time

import pytest

from repro.serve import (
    ChaosProfile,
    MergeServer,
    ServeChaos,
    ServeConfig,
)
from repro.verify.invariants import InvariantAuditor

pytestmark = pytest.mark.slow


def request(port, method, path, body=None, headers=None, timeout=10):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        h = {"Content-Type": "application/json"}
        h.update(headers or {})
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload, headers=h)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


def start_server(tmp_path=None, **overrides):
    config = ServeConfig(
        port=0, n_vms=1, pages_per_vm=16,
        metrics_out=(
            str(tmp_path / "final_metrics.json") if tmp_path else None
        ),
        **overrides,
    )
    auditor = InvariantAuditor()
    return MergeServer(config, auditor=auditor).start(), auditor


class TestGracefulDrain:
    def test_drain_finishes_inflight_and_sheds_new(self, tmp_path):
        # Every op stalls ~0.4s: a predictable in-flight window to
        # drain into.
        server, auditor = start_server(
            tmp_path,
            chaos=ChaosProfile(seed=3, stall_prob=1.0, stall_s=0.4),
            drain_timeout_s=10.0,
        )
        port = server.port
        inflight = {}

        def slow_request():
            inflight["outcome"] = request(
                port, "POST", "/v1/workload", {"kind": "read"},
            )

        t = threading.Thread(target=slow_request, daemon=True)
        t.start()
        # Wait until the request is actually admitted and in flight.
        for _ in range(100):
            if server.admission.stats.inflight > 0:
                break
            time.sleep(0.01)
        else:
            pytest.fail("request never went in flight")

        server.begin_drain()

        # Readiness is already off while the socket still accepts:
        # this very connection proves the socket is open.
        status, data = request(port, "GET", "/readyz")
        assert status == 503 and data["status"] == "draining"

        # New data-plane work is shed with the drain reason.
        status, data = request(
            port, "POST", "/v1/workload", {"kind": "read"},
        )
        assert status == 503 and data["reason"] == "draining"

        # The in-flight request still completed (it was admitted
        # before the drain began).
        t.join(timeout=10)
        assert inflight["outcome"][0] == 200

        assert server._drained.wait(10)
        assert server.admission.stats.inflight == 0
        assert server.admission.stats.balanced
        assert auditor.clean

        # Final metrics were published atomically: the real file
        # exists, no temp debris does.
        final = tmp_path / "final_metrics.json"
        assert final.exists()
        payload = json.loads(final.read_text())
        assert payload["final"] is True
        assert payload["metrics"]["admission/balanced"]
        leftovers = [p for p in tmp_path.iterdir() if p != final]
        assert leftovers == []

    def test_drain_is_idempotent_and_socket_closes_last(self, tmp_path):
        server, _ = start_server(tmp_path)
        port = server.port
        assert request(port, "GET", "/readyz")[0] == 200
        assert server.drain(timeout=10)
        server.begin_drain()  # second call is a no-op
        assert server._drained.is_set()
        # The listen socket is now closed for real.
        with pytest.raises(OSError):
            request(port, "GET", "/healthz", timeout=1)

    def test_sigterm_triggers_drain(self, tmp_path):
        server, auditor = start_server(tmp_path)
        server.install_signal_handlers()
        port = server.port
        assert request(port, "GET", "/healthz")[0] == 200

        def fire():
            time.sleep(0.1)
            os.kill(os.getpid(), signal.SIGTERM)

        threading.Thread(target=fire, daemon=True).start()
        # The foreground loop a CLI `repro serve` would sit in: the
        # signal lands on the main thread, begins the drain, and the
        # wait below releases once the drain completes.
        server.serve_until_drained()
        assert server._drained.is_set()
        assert not server.ready
        assert (tmp_path / "final_metrics.json").exists()
        assert auditor.clean
        # Restore default handlers for whatever test runs next.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)


class TestBreakerLifecycle:
    def test_stalled_backend_trips_breaker_then_recovers(self):
        # Chaos stalls every op for longer than the request deadline:
        # the ops "succeed" but overrun their budgets, which must trip
        # the breaker exactly like hard errors do.
        server, auditor = start_server(
            None,
            chaos=ChaosProfile(seed=11, stall_prob=1.0, stall_s=0.4),
            default_deadline_s=0.15,
            breaker_threshold=2,
            breaker_cooldown_s=0.3,
        )
        port = server.port
        try:
            # Two stalled requests: both come back 504 (completed too
            # late), and the second one trips the breaker.
            for _ in range(2):
                status, data = request(
                    port, "POST", "/v1/workload", {"kind": "read"},
                )
                assert status == 504
            assert server.app.breaker.trips == 1

            # During cooldown the fast path sheds without touching the
            # engine: 503 breaker_open with a Retry-After.
            status, data = request(
                port, "POST", "/v1/workload", {"kind": "read"},
            )
            assert status == 503 and data["reason"] == "breaker_open"

            # The backend "recovers": swap in an inactive chaos
            # profile, wait out the cooldown, and the next request is
            # the half-open probe that closes the breaker.
            server.app.chaos = ServeChaos(ChaosProfile())
            time.sleep(0.35)
            status, data = request(
                port, "POST", "/v1/workload", {"kind": "read"},
            )
            assert status == 200
            assert server.app.breaker.recoveries == 1
            assert server.app.breaker.state == "closed"

            # Chaos never corrupted the world and the ledger balances:
            # 2 failed (late), 1 shed (breaker), 1 accepted.
            stats = server.admission.stats
            assert stats.balanced
            assert stats.failed_deadline == 2
            assert stats.shed_breaker == 1
            assert stats.accepted == 1
            assert auditor.clean
        finally:
            server.close()

    def test_injected_errors_trip_breaker(self):
        server, auditor = start_server(
            None,
            chaos=ChaosProfile(seed=5, error_prob=1.0),
            breaker_threshold=3,
            breaker_cooldown_s=60.0,
        )
        port = server.port
        try:
            for _ in range(3):
                status, data = request(
                    port, "POST", "/v1/workload", {"kind": "read"},
                )
                assert status == 500
                assert data["error"] == "InjectedBackendError"
            assert server.app.breaker.state == "open"
            status, data = request(
                port, "POST", "/v1/workload", {"kind": "read"},
            )
            assert status == 503 and data["reason"] == "breaker_open"
            assert server.admission.stats.balanced
            assert auditor.clean
        finally:
            server.close()
