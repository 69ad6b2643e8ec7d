"""Fault resilience: chaos campaigns over the merging stack.

* Content invariant: merged pages stay byte-identical to their sources
  under every injected fault class, at every rate tried.
* Graceful degradation: with the governor falling back to software
  KSM, savings at a 1e-3 per-line fault rate stay within 10% of
  fault-free software KSM.
* The campaign is not silently quiet: every line-fault class fires.
* Replication: streaming keeps replicas within one flush batch of the
  primary, and a killed primary fails over to a bit-equivalent run.

``python -m repro faults`` renders the campaign table.
"""

import time

import pytest

from repro.faults import FaultPlan, run_fault_campaign, run_fault_suite
from repro.recovery import ReplicationSession, RunSpec

#: Per-line fault rates for the savings-vs-rate curve (churn off so the
#: page population is identical across points).
SWEEP_RATES = (0.0, 1e-4, 1e-3, 5e-3)
SWEEP_SCALE = dict(pages_per_vm=60, n_vms=3, intervals=6)


@pytest.fixture(scope="module")
def suite():
    """The three-mode churny chaos suite at the 1e-3 headline rate."""
    return run_fault_suite(app="moses", seed=0, rate=1e-3, quick=True)


@pytest.fixture(scope="module")
def sweep():
    return {
        rate: run_fault_campaign(
            mode="pageforge", seed=0,
            plan=FaultPlan.uniform(rate, seed=0) if rate else
            FaultPlan.quiet(seed=0),
            **SWEEP_SCALE,
        )
        for rate in SWEEP_RATES
    }


def test_no_content_corruption_at_any_rate(suite, sweep):
    for mode, result in suite.items():
        assert result.content_violations == 0, mode
        assert result.consistency_violations == 0, mode
    for rate, result in sweep.items():
        assert result.content_violations == 0, rate
        assert result.consistency_violations == 0, rate


def test_degraded_savings_within_10pct_of_ksm(suite, sweep):
    """Both sweep campaigns run churn-free, so the savings denominator is
    the same page population."""
    ksm_clean = run_fault_campaign(
        mode="ksm", seed=0, plan=FaultPlan.quiet(seed=0), **SWEEP_SCALE,
    )
    pf = sweep[1e-3]
    assert ksm_clean.savings_frac > 0
    assert pf.savings_frac >= 0.9 * ksm_clean.savings_frac, (
        pf.savings_frac, ksm_clean.savings_frac
    )
    # Under the churny suite plan the same holds against KSM run under
    # that same plan (same destroyed VMs, same unmerges).
    assert suite["pageforge"].savings_frac >= \
        0.9 * suite["ksm"].savings_frac


def test_faults_actually_fired(suite):
    pageforge = suite["pageforge"]
    for key in ("single_bit_flips", "double_bit_flips",
                "silent_corruptions", "requests_dropped", "latency_spikes"):
        assert pageforge.injected[key] > 0, key
    assert pageforge.batch_retries > 0
    assert pageforge.corrected_words > 0


# Replication tier ----------------------------------------------------------------

_REPL_SPEC = RunSpec(
    app="moses", mode="ksm", seed=3, pages_per_vm=30, n_vms=3,
    intervals=4, checkpoint_every=2, plan=FaultPlan(seed=3),
)


def test_replication_steady_state_lag(tmp_path):
    """Heartbeats fire right after the interval-commit flush, so steady-
    state lag on a quiet link is bounded by in-flight acks."""
    rep = ReplicationSession(_REPL_SPEC, tmp_path, n_replicas=2).run()[
        "replication"
    ]
    assert rep["lag_records"]["p95"] <= _REPL_SPEC.plan.net_lag_frames + 8
    assert rep["records_streamed"] > 0


def test_replication_failover_is_equivalent(tmp_path):
    """Kill the primary mid-run: one failover, promotion latency inside
    the run, and a result bit-equivalent to never having crashed."""
    session = ReplicationSession(_REPL_SPEC, tmp_path, n_replicas=2)
    t0 = time.monotonic()
    out = session.run(kill_at_lsns=[20], check_equivalence=True)
    total_s = time.monotonic() - t0
    assert out["failovers"] == 1
    assert out["equivalence"]["equivalent"], out["equivalence"]
    latency_s = out["replication"]["failover_latency_s"]["max"]
    assert 0.0 < latency_s < total_s
