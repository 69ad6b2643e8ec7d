"""Shared experiment for the paper's shape claims.

Figures 9, 10, 11 and Tables 4 and 5 all read the same three-
configuration (Baseline / KSM / PageForge) latency experiment, so it
runs once per session.  The suite has one scale: the one every claim
here is known to hold at.  EXPERIMENTS.md's headline numbers come from
larger CLI runs (``python -m repro latency --pages-per-vm 2000 ...``);
the claims are shapes, not those numbers.
"""

import pytest

from repro.common.config import TAILBENCH_APPS
from repro.sim import SimulationScale, run_latency_experiment

LATENCY_SCALE = SimulationScale(
    pages_per_vm=600, n_vms=10, duration_s=0.4, warmup_s=0.5,
)


@pytest.fixture(scope="session")
def latency_results():
    """``{app: ExperimentResult}`` for every TailBench app."""
    return {
        app: run_latency_experiment(app, scale=LATENCY_SCALE)
        for app in TAILBENCH_APPS
    }
