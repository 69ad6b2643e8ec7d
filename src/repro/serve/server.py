"""The stdlib-HTTP front-end: routing, admission, drain.

One :class:`MergeServer` = one listening socket + one
:class:`~repro.serve.app.MergeServiceApp` + one
:class:`~repro.serve.admission.AdmissionController`.  The request
handler is intentionally thin: parse, admit, execute under deadline,
map exceptions to status codes, account exactly once.

Routes
======

===========================  =================================================
``GET /healthz``             liveness (200 while the process runs)
``GET /readyz``              readiness (503 once drain begins — flips
                             *before* the listen socket closes, so a load
                             balancer stops routing while in-flight work
                             still completes)
``GET /v1/metrics``          full MetricsRegistry snapshot (control plane:
                             never admitted/shed)
``POST /v1/workload``        data plane: ``{"kind": "scan"|"read", ...}``
``POST /v1/admin/spawn-vm``  admin: add a VM with synthetic content
``POST /v1/admin/scan-rate`` admin: ``{"pages_to_scan": N}``
``POST /v1/admin/backend``   admin: ``{"backend": "<registered name>"}``
===========================  =================================================

Graceful drain (SIGTERM): readiness flips false and new data-plane
requests shed with 503 + Retry-After, in-flight requests finish (up to
``drain_timeout_s``), the final metrics snapshot is published
atomically (tmp/fsync/rename), and only then does the listen socket
close.
"""

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.common.io import atomic_write_text
from repro.serve.admission import AdmissionController, ShedReason
from repro.serve.app import MergeServiceApp
from repro.serve.breaker import BreakerOpen
from repro.serve.deadline import DEADLINE_HEADER, Deadline, DeadlineExceeded

__all__ = [
    "MergeServer",
    "TENANT_HEADER",
]

#: Tenant identity for per-tenant rate limiting.
TENANT_HEADER = "X-Repro-Tenant"


def _shed_status(reason):
    return 429 if reason in ShedReason.RATE_REASONS else 503


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's default listen backlog is 5.  A burst of new
    # connections (a load generator's workers connecting at once)
    # overflows it, the kernel drops the excess SYNs, and each client
    # retries after a 1 s timeout — queueing the request's deadline
    # clock never sees, so a 200 reaches the client past its deadline.
    request_queue_size = 128


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out as separate writes; without TCP_NODELAY,
    # Nagle holds the body until the headers' (delayed) ACK — ~40ms per
    # keep-alive request even on loopback.
    disable_nagle_algorithm = True
    #: The owning MergeServer (set on the subclass the server builds).
    front = None

    # Silence the default per-request stderr log line.
    def log_message(self, fmt, *args):
        pass

    # Plumbing -------------------------------------------------------------------

    def _reply(self, status, payload, extra_headers=None):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _shed(self, reason, retry_after_s):
        self._reply(
            _shed_status(reason),
            {"error": "shed", "reason": reason},
            {"Retry-After": f"{max(0.05, retry_after_s):.3f}"},
        )

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        if not raw:
            return {}
        return json.loads(raw.decode("utf-8"))

    # Routing --------------------------------------------------------------------

    def do_GET(self):
        front = self.front
        if self.path == "/healthz":
            self._reply(200, {"status": "alive"})
        elif self.path == "/readyz":
            if front.ready:
                self._reply(200, {"status": "ready"})
            else:
                self._reply(503, {"status": "draining"})
        elif self.path == "/v1/metrics":
            self._reply(200, front.snapshot())
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})

    def do_POST(self):
        front = self.front
        route = {
            "/v1/workload": front.handle_workload,
            "/v1/admin/spawn-vm": front.handle_spawn_vm,
            "/v1/admin/scan-rate": front.handle_scan_rate,
            "/v1/admin/backend": front.handle_switch_backend,
        }.get(self.path)
        if route is None:
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        try:
            body = self._read_body()
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": f"bad request body: {exc}"})
            return
        front.serve_request(self, route, body)


class MergeServer:
    """The long-running front-end over one merging world."""

    def __init__(self, config, auditor=None, clock=time.monotonic):
        self.config = config
        self.clock = clock
        self.app = MergeServiceApp(config, auditor=auditor, clock=clock)
        self.admission = AdmissionController(config, clock=clock)
        self.app.metrics.register("admission", self.admission.metrics)
        self.ready = False
        self._drain_started = threading.Event()
        self._drained = threading.Event()
        self._serve_thread = None

        handler = type("BoundHandler", (_Handler,), {"front": self})
        self._httpd = _HTTPServer((config.host, config.port), handler)

    # Addressing -----------------------------------------------------------------

    @property
    def port(self):
        return self._httpd.server_address[1]

    @property
    def base_url(self):
        return f"http://{self.config.host}:{self.port}"

    # Lifecycle ------------------------------------------------------------------

    def start(self):
        """Serve in a background thread; returns once the socket listens."""
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="merge-server", daemon=True,
        )
        self._serve_thread.start()
        self.ready = True
        return self

    def install_signal_handlers(self):
        """SIGTERM/SIGINT begin a graceful drain (foreground serving)."""
        def on_signal(signum, frame):
            self.begin_drain()
        signal.signal(signal.SIGTERM, on_signal)
        signal.signal(signal.SIGINT, on_signal)

    def begin_drain(self):
        """Start the drain: readiness off, new work shed, then shutdown.

        Idempotent and non-blocking; the drain completes on a helper
        thread so a signal handler can call this safely.
        """
        if self._drain_started.is_set():
            return
        self._drain_started.set()
        # Order matters and is load-bearing: readiness flips *first*
        # (load balancers stop routing), new data-plane work is shed,
        # and the listen socket only closes after in-flight requests
        # finished — the lifecycle test pins this sequence.
        self.ready = False
        self.admission.begin_drain()
        threading.Thread(
            target=self._finish_drain, name="merge-server-drain",
            daemon=True,
        ).start()

    def _finish_drain(self):
        self.admission.wait_idle(timeout=self.config.drain_timeout_s)
        self.flush_metrics()
        self._httpd.shutdown()
        self._httpd.server_close()
        self._drained.set()

    def drain(self, timeout=None):
        """Blocking drain: returns True once fully stopped."""
        self.begin_drain()
        return self._drained.wait(
            timeout if timeout is not None
            else self.config.drain_timeout_s + 5.0
        )

    def serve_until_drained(self):
        """Foreground loop for the CLI: block until a signal drains us."""
        self._drained.wait()

    def close(self):
        """Hard stop (tests); prefer :meth:`drain` for graceful exit."""
        if not self._drained.is_set():
            self._httpd.shutdown()
            self._httpd.server_close()
            self._drained.set()

    # Telemetry ------------------------------------------------------------------

    def snapshot(self):
        return self.app.metrics.snapshot()

    def flush_metrics(self):
        """Atomically publish the final metrics snapshot, if configured."""
        path = self.config.metrics_out
        if not path:
            return None
        payload = {
            "final": True,
            "backend": self.app.host.backend,
            "metrics": self.snapshot(),
        }
        return atomic_write_text(
            path, json.dumps(payload, indent=2, sort_keys=True)
        )

    # The data-plane request path ------------------------------------------------

    def serve_request(self, handler, route, body):
        """Admission -> deadline -> execute -> exact accounting."""
        admission = self.admission
        try:
            deadline = Deadline.from_header(
                handler.headers.get(DEADLINE_HEADER),
                self.config.default_deadline_s,
                self.config.max_deadline_s,
                clock=self.clock,
            )
        except ValueError as exc:
            # Malformed deadlines are a client error, not an offered
            # request: reply before admission so the ledger only ever
            # holds requests with a well-formed budget.
            handler._reply(400, {"error": f"bad deadline: {exc}"})
            return

        tenant = handler.headers.get(TENANT_HEADER) or "anon"
        admitted, reason, retry_s = admission.admit(tenant)
        if not admitted:
            handler._shed(reason, retry_s)
            return

        # Fast-path breaker shed: an open breaker refuses instantly,
        # without queueing for the engine or consuming a probe slot.
        breaker_wait = self.app.breaker_retry_after()
        if breaker_wait is not None:
            retry_s = admission.shed_admitted(ShedReason.BREAKER_OPEN)
            handler._shed(ShedReason.BREAKER_OPEN, max(retry_s,
                                                       breaker_wait))
            return

        try:
            result = route(deadline, body)
        except DeadlineExceeded as exc:
            admission.release(deadline.elapsed(), "deadline")
            handler._reply(504, {"error": "deadline_exceeded",
                                 "detail": str(exc)})
            return
        except BreakerOpen as exc:
            retry_s = admission.shed_admitted(ShedReason.BREAKER_OPEN)
            handler._shed(ShedReason.BREAKER_OPEN,
                          max(retry_s, exc.retry_after_s))
            return
        except ValueError as exc:
            # Client errors burn a slot but must still balance the
            # ledger: they are failures, not accepts.
            admission.release(deadline.elapsed(), "error")
            handler._reply(400, {"error": str(exc)})
            return
        except Exception as exc:  # injected chaos or a real backend bug
            admission.release(deadline.elapsed(), "error")
            handler._reply(500, {"error": type(exc).__name__,
                                 "detail": str(exc)})
            return

        # The gated invariant: a success that ran past its deadline is
        # converted to 504 *before* the status line is written, so no
        # accepted (200) response ever violates its deadline.
        if deadline.expired:
            admission.release(deadline.elapsed(), "late_ok")
            handler._reply(504, {"error": "deadline_exceeded",
                                 "detail": "completed too late"})
            return

        latency = deadline.elapsed()
        admission.release(latency, "ok")
        self.app.record_latency(latency)
        handler._reply(200, {
            "result": result,
            "latency_ms": round(1e3 * latency, 3),
            "deadline_remaining_ms": round(1e3 * deadline.remaining(), 3),
        })

    # Route bodies ---------------------------------------------------------------

    def handle_workload(self, deadline, body):
        return self.app.op_workload(
            deadline, kind=body.get("kind", "scan"),
            pages=body.get("pages"),
        )

    def handle_spawn_vm(self, deadline, body):
        return self.app.op_spawn_vm(deadline, pages=body.get("pages"))

    def handle_scan_rate(self, deadline, body):
        if "pages_to_scan" not in body:
            raise ValueError("missing pages_to_scan")
        return self.app.op_set_scan_rate(deadline, body["pages_to_scan"])

    def handle_switch_backend(self, deadline, body):
        if "backend" not in body:
            raise ValueError("missing backend")
        return self.app.op_switch_backend(deadline, body["backend"])
