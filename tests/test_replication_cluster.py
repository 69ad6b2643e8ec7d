"""The replicated supervisor, exercised with real child processes.

These spawn actual ``python -m repro replicate --worker`` primaries over
loopback TCP, hard-kill them (injected ``os._exit`` or the watchdog's
genuine SIGKILL) and drive the failover through a promoted replica, so
they are slow-marked; the deterministic in-process coverage lives in
``test_replication.py`` / ``test_replication_failover.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.recovery import ReplicatedSupervisor, RunSpec
from repro.recovery.replication.cluster import CRASH_EXIT_CODE

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[1]


def _spec(**overrides):
    plan = overrides.pop("plan", None) or FaultPlan(
        seed=3, vm_destroy_prob=0.05, unmerge_churn_prob=0.3,
        crash_after_ops=35,
    )
    defaults = dict(app="moses", mode="ksm", seed=3, pages_per_vm=40,
                    n_vms=3, intervals=6, checkpoint_every=2, plan=plan)
    defaults.update(overrides)
    return RunSpec(**defaults)


def test_primary_death_promotes_replica_and_stays_equivalent(tmp_path):
    supervisor = ReplicatedSupervisor(
        tmp_path, spec=_spec(), n_replicas=2, max_attempts=5,
        stall_timeout=60.0, poll_interval=0.05,
    )
    outcome = supervisor.run(check_equivalence=True)
    assert outcome["completed"]
    assert outcome["crashes"] >= 1
    assert CRASH_EXIT_CODE in outcome["exit_codes"]
    assert outcome["exit_codes"][-1] == 0
    # The run finished on a *promoted replica's* workdir, not the
    # original primary's.
    assert outcome["failovers"] >= 1
    assert outcome["promoted"][0].startswith("replica-")
    assert outcome["final_workdir"] != str(tmp_path / "primary")
    assert outcome["result"]["validation"]["auditor_clean"]
    assert outcome["result"]["validation"]["zero_false_merges"]
    assert outcome["equivalence"]["equivalent"], outcome["equivalence"]
    # Telemetry made it out through the registry seam.
    assert outcome["metrics"]["replication/failovers"] >= 1
    assert outcome["metrics"]["replication/records_streamed"] > 0
    published = json.loads((tmp_path / "outcome.json").read_text())
    assert published["completed"] is True


def test_stalled_primary_is_sigkilled_then_failed_over(tmp_path):
    spec = _spec(
        plan=FaultPlan(seed=3, vm_destroy_prob=0.05,
                       unmerge_churn_prob=0.3),
        stall_at_interval=2,
    )
    supervisor = ReplicatedSupervisor(
        tmp_path, spec=spec, n_replicas=2, max_attempts=4,
        stall_timeout=2.0, poll_interval=0.05,
    )
    outcome = supervisor.run(check_equivalence=True)
    assert outcome["stalls_killed"] >= 1
    assert -9 in outcome["exit_codes"]  # SIGKILL really happened
    assert outcome["completed"]
    assert outcome["failovers"] >= 1
    assert outcome["equivalence"]["equivalent"], outcome["equivalence"]


def test_replicate_cli_end_to_end_with_partition_chaos(tmp_path):
    cmd = [
        sys.executable, "-m", "repro", "replicate",
        "--workdir", str(tmp_path / "cluster"),
        "--mode", "ksm", "--app", "moses", "--seed", "5",
        "--replicas", "2", "--pages-per-vm", "40", "--vms", "3",
        "--intervals", "6", "--checkpoint-every", "2",
        "--kill-after-ops", "35",
        "--net-drop", "0.05", "--net-reorder", "0.05",
        "--partition-prob", "0.02", "--partition-frames", "8",
        "--stall-timeout", "60", "--check-equivalence",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=300, env=env,
        cwd=str(ROOT),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    outcome = json.loads(
        (tmp_path / "cluster" / "outcome.json").read_text()
    )
    assert outcome["completed"]
    assert outcome["failovers"] >= 1
    assert outcome["equivalence"]["equivalent"]
    # The chaos links actually did something to the stream.
    net = outcome["replication"]["net"]
    assert net["frames_sent"] > 0
    assert (net["frames_dropped"] + net["frames_reordered"]
            + net["partition_frames_dropped"]) > 0
