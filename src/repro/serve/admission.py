"""Admission control: bounded queue, load shedding, per-tenant limits.

The data plane admits a request only when all of these hold:

* the server is not draining;
* the bounded in-flight window (``queue_depth``) has room;
* the EWMA of recent request latency is under the SLO *or* the window
  is still mostly empty (a slow request on an idle server is not
  overload);
* the tenant's token bucket has a token (when rate limiting is on).

Everything shed gets a 503/429 with a ``Retry-After`` derived from the
measured service rate — the honest estimate of when capacity will
exist, which is what keeps a well-behaved open-loop client from
hammering a melting server.

Accounting is exact by construction: every offered request ends in
exactly one of ``accepted`` (2xx), ``shed`` (429/503), or ``failed``
(5xx/504), and the counters are incremented under the same lock that
decides the outcome — the ``serve`` bench suite gates
``offered == accepted + shed + failed`` after an overload run.
"""

import threading
import time
from dataclasses import dataclass, field
from typing import Dict

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "ShedReason",
    "TokenBucket",
]


class ShedReason:
    """Why a request was turned away (stable strings, used as metrics)."""

    QUEUE_FULL = "queue_full"
    OVERLOAD = "overload"
    RATE_LIMITED = "rate_limited"
    DRAINING = "draining"
    BREAKER_OPEN = "breaker_open"

    #: Reasons that map to 429 rather than 503.
    RATE_REASONS = (RATE_LIMITED,)


class TokenBucket:
    """Classic token bucket over an injectable monotonic clock."""

    __slots__ = ("rate", "burst", "tokens", "_last", "_clock")

    def __init__(self, rate, burst, clock=time.monotonic):
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._clock = clock
        self._last = clock()

    def _refill(self):
        now = self._clock()
        self.tokens = min(
            self.burst, self.tokens + (now - self._last) * self.rate
        )
        self._last = now

    def try_take(self, n=1.0):
        self._refill()
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def seconds_until(self, n=1.0):
        """Time until ``n`` tokens exist (Retry-After for 429s)."""
        self._refill()
        deficit = n - self.tokens
        return max(0.0, deficit / self.rate)


@dataclass
class AdmissionStats:
    """The exact-accounting ledger (a MetricsRegistry provider)."""

    offered: int = 0
    accepted: int = 0
    shed_queue_full: int = 0
    shed_overload: int = 0
    shed_rate_limited: int = 0
    shed_draining: int = 0
    shed_breaker: int = 0
    failed_error: int = 0
    failed_deadline: int = 0
    inflight: int = 0
    inflight_peak: int = 0
    ewma_latency_s: float = 0.0
    by_tenant: Dict[str, int] = field(default_factory=dict)

    @property
    def shed(self):
        return (self.shed_queue_full + self.shed_overload
                + self.shed_rate_limited + self.shed_draining
                + self.shed_breaker)

    @property
    def failed(self):
        return self.failed_error + self.failed_deadline

    @property
    def balanced(self):
        """The invariant: every offered request is accounted once."""
        return self.offered == self.accepted + self.shed + self.failed


class AdmissionController:
    """Decides, under one lock, the fate of every data-plane request."""

    def __init__(self, config, clock=time.monotonic):
        self.config = config
        self.stats = AdmissionStats()
        self._clock = clock
        self._lock = threading.Lock()
        self._draining = False
        self._idle = threading.Condition(self._lock)
        self._buckets = {}

    # Drain ----------------------------------------------------------------------

    @property
    def draining(self):
        return self._draining

    def begin_drain(self):
        """New data-plane requests shed from now on; in-flight finish."""
        with self._lock:
            self._draining = True
            self._idle.notify_all()

    def wait_idle(self, timeout=None):
        """Block until no admitted request is in flight (drain join)."""
        deadline = None if timeout is None else self._clock() + timeout
        with self._idle:
            while self.stats.inflight > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    # Admission ------------------------------------------------------------------

    def _bucket_for(self, tenant):
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self.config.tenant_rate_qps, self.config.tenant_burst,
                clock=self._clock,
            )
            self._buckets[tenant] = bucket
        return bucket

    def retry_after_s(self):
        """Honest backoff hint: time to drain the current window."""
        per_request = max(self.stats.ewma_latency_s, 1e-3)
        return max(0.05, per_request * max(1, self.stats.inflight))

    def admit(self, tenant="anon"):
        """One request arrives.  Returns ``(admitted, reason, retry_s)``.

        The shed counters are bumped here; the accepted/failed outcome
        of an admitted request is settled later by :meth:`release`.
        """
        cfg = self.config
        with self._lock:
            self.stats.offered += 1
            self.stats.by_tenant[tenant] = (
                self.stats.by_tenant.get(tenant, 0) + 1
            )
            if self._draining:
                self.stats.shed_draining += 1
                return False, ShedReason.DRAINING, self.retry_after_s()
            if self.stats.inflight >= cfg.queue_depth:
                self.stats.shed_queue_full += 1
                return False, ShedReason.QUEUE_FULL, self.retry_after_s()
            soft = max(1, int(cfg.queue_depth * cfg.soft_queue_frac))
            if (self.stats.ewma_latency_s > cfg.slo_latency_s
                    and self.stats.inflight >= soft):
                self.stats.shed_overload += 1
                return False, ShedReason.OVERLOAD, self.retry_after_s()
            if cfg.tenant_rate_qps > 0:
                bucket = self._bucket_for(tenant)
                if not bucket.try_take():
                    self.stats.shed_rate_limited += 1
                    return (False, ShedReason.RATE_LIMITED,
                            max(0.05, bucket.seconds_until()))
            self.stats.inflight += 1
            self.stats.inflight_peak = max(
                self.stats.inflight_peak, self.stats.inflight
            )
            return True, None, None

    def shed_admitted(self, reason):
        """An admitted request is turned away after all (breaker open).

        Admission reserves the window slot before the breaker is
        consulted, so a post-admission shed must both release the slot
        and move the request from the accepted path to the shed ledger.
        """
        with self._lock:
            if reason == ShedReason.BREAKER_OPEN:
                self.stats.shed_breaker += 1
            elif reason == ShedReason.DRAINING:
                self.stats.shed_draining += 1
            else:
                self.stats.shed_overload += 1
            self.stats.inflight -= 1
            self._idle.notify_all()
        return self.retry_after_s()

    def release(self, latency_s, outcome):
        """An admitted request finished: settle the ledger.

        ``outcome`` is one of ``"ok"``, ``"error"``, ``"deadline"``,
        ``"late_ok"`` (a would-be 200 that ran past its deadline —
        counted as a deadline failure *and* flagged, because the server
        must have converted it to 504 before sending).
        """
        alpha = self.config.ewma_alpha
        with self._lock:
            if outcome == "ok":
                self.stats.accepted += 1
            elif outcome == "error":
                self.stats.failed_error += 1
            elif outcome == "deadline":
                self.stats.failed_deadline += 1
            elif outcome == "late_ok":
                self.stats.failed_deadline += 1
            else:
                raise ValueError(f"unknown outcome {outcome!r}")
            self.stats.ewma_latency_s = (
                alpha * latency_s
                + (1.0 - alpha) * self.stats.ewma_latency_s
            )
            self.stats.inflight -= 1
            self._idle.notify_all()

    # Metrics --------------------------------------------------------------------

    def metrics(self):
        """Flat provider payload for the MetricsRegistry."""
        s = self.stats
        return {
            "offered": s.offered,
            "accepted": s.accepted,
            "shed": s.shed,
            "shed_queue_full": s.shed_queue_full,
            "shed_overload": s.shed_overload,
            "shed_rate_limited": s.shed_rate_limited,
            "shed_draining": s.shed_draining,
            "shed_breaker": s.shed_breaker,
            "failed": s.failed,
            "failed_error": s.failed_error,
            "failed_deadline": s.failed_deadline,
            "inflight": s.inflight,
            "inflight_peak": s.inflight_peak,
            "ewma_latency_s": s.ewma_latency_s,
            "balanced": s.balanced,
            "draining": self._draining,
        }
