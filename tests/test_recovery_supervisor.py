"""The single-node supervisor, exercised with real child processes.

The single-node tier is :class:`ReplicatedSupervisor` with zero
replicas: every crash or stall resumes the primary's own workdir in
place.  These tests spawn actual ``python -m repro supervise --worker``
subprocesses and (for the stall test) really SIGKILL one, so they are
slow-marked; the in-process crash-equivalence coverage lives in
``test_recovery.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults import FaultPlan
from repro.recovery import ReplicatedSupervisor, RunSpec, read_journal
from repro.recovery.replication.cluster import CRASH_EXIT_CODE

pytestmark = pytest.mark.slow

#: Repo root (tests/ lives directly under it).
ROOT = Path(__file__).resolve().parents[1]

#: The CI ``crash-recovery`` run: the worker dies at journaled op 35.
SUPERVISE_ARGS = [
    "--mode", "ksm", "--app", "moses", "--seed", "3",
    "--pages-per-vm", "40", "--vms", "3", "--intervals", "6",
    "--checkpoint-every", "2", "--crash-after-ops", "35",
    "--stall-timeout", "60",
]


def _spec(**overrides):
    plan = overrides.pop("plan", None) or FaultPlan(
        seed=3, vm_destroy_prob=0.05, unmerge_churn_prob=0.3,
        crash_after_ops=35,
    )
    defaults = dict(app="moses", mode="ksm", seed=3, pages_per_vm=40,
                    n_vms=3, intervals=6, checkpoint_every=2, plan=plan)
    defaults.update(overrides)
    return RunSpec(**defaults)


def _supervise(workdir, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "supervise",
         "--workdir", str(workdir), *args],
        capture_output=True, text=True, timeout=300, env=env,
        cwd=str(ROOT),
    )


def test_supervised_crash_and_recovery(tmp_path):
    supervisor = ReplicatedSupervisor(
        tmp_path, spec=_spec(), n_replicas=0, max_attempts=5,
        stall_timeout=60.0, poll_interval=0.05,
    )
    outcome = supervisor.run(check_equivalence=True)
    assert outcome["completed"]
    assert outcome["crashes"] >= 1
    # The injected ProcessCrash surfaces as the dedicated exit code,
    # and the final attempt exits clean.
    assert CRASH_EXIT_CODE in outcome["exit_codes"]
    assert outcome["exit_codes"][-1] == 0
    # No replica to promote: the run resumed in place.
    assert outcome["promoted"] == ["<self>"]
    assert outcome["result"]["validation"]["auditor_clean"]
    assert outcome["result"]["validation"]["zero_false_merges"]
    assert outcome["equivalence"]["equivalent"], outcome["equivalence"]
    # outcome.json is published for post-mortem tooling.
    published = json.loads((tmp_path / "outcome.json").read_text())
    assert published["completed"] is True


def test_supervisor_kills_stalled_worker(tmp_path):
    spec = _spec(
        plan=FaultPlan(seed=3, vm_destroy_prob=0.05,
                       unmerge_churn_prob=0.3),
        stall_at_interval=2,
    )
    supervisor = ReplicatedSupervisor(
        tmp_path, spec=spec, n_replicas=0, max_attempts=4,
        stall_timeout=2.0, poll_interval=0.05,
    )
    outcome = supervisor.run(check_equivalence=True)
    assert outcome["stalls_killed"] >= 1
    assert -9 in outcome["exit_codes"]  # SIGKILL really happened
    assert outcome["completed"]  # the resumed attempt (no stall) finishes
    assert outcome["promoted"] == ["<self>"]
    assert outcome["equivalence"]["equivalent"], outcome["equivalence"]


def test_supervise_cli_end_to_end(tmp_path):
    proc = _supervise(tmp_path / "run", *SUPERVISE_ARGS,
                      "--check-equivalence")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    outcome = json.loads(
        (tmp_path / "run" / "outcome.json").read_text()
    )
    assert outcome["completed"]
    assert outcome["crashes"] >= 1
    assert outcome["promoted"] == ["<self>"]
    assert outcome["equivalence"]["equivalent"]


def test_supervise_resume_continues_a_crashed_run(tmp_path):
    # One attempt only: the worker dies at op 35 and the run stops.
    crashed = _supervise(tmp_path, *SUPERVISE_ARGS, "--max-attempts", "1")
    assert crashed.returncode == 1, crashed.stdout + crashed.stderr
    first = json.loads((tmp_path / "outcome.json").read_text())
    assert first["exit_codes"] == [CRASH_EXIT_CODE]
    # No attempt followed the death, so nothing failed over.
    assert first["failovers"] == 0
    assert first["promoted"] == []
    assert first["final_workdir"] == str(tmp_path / "primary")

    resumed = _supervise(tmp_path, "--resume", "--check-equivalence")
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    outcome = json.loads((tmp_path / "outcome.json").read_text())
    assert outcome["completed"]
    assert outcome["exit_codes"] == [0]
    assert outcome["equivalence"]["equivalent"], outcome["equivalence"]
    # The resumed worker verified the surviving records rather than
    # journaling them a second time.
    records, _dropped = read_journal(tmp_path / "primary" / "journal.jsonl")
    seqs = [r["seq"] for r in records]
    assert len(seqs) == len(set(seqs))


def test_supervise_refuses_resume_with_replicas(tmp_path, capsys):
    # Replicas rebuilt over an existing cluster directory would append
    # their catch-up stream a second time.
    code = main(["supervise", "--workdir", str(tmp_path), "--resume",
                 "--replicas", "1"])
    assert code == 2
    assert "--replicas 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
