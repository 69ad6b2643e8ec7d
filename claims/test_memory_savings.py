"""Figure 7 (Section 6.1): memory footprint without and with merging.

Claims: ~48% average footprint reduction, KSM and PageForge reach
*identical* footprints, and every zero page collapses into one frame.
``python -m repro savings`` renders the figure.
"""

import pytest

from repro.common.config import TAILBENCH_APPS
from repro.sim import run_memory_savings

PAGES_PER_VM = 300


@pytest.fixture(scope="module")
def savings():
    """``{app: {engine: MemorySavingsResult}}``, 10 VMs per app."""
    return {
        app: {
            engine: run_memory_savings(
                app, pages_per_vm=PAGES_PER_VM, n_vms=10, engine=engine,
            )
            for engine in ("ksm", "pageforge")
        }
        for app in TAILBENCH_APPS
    }


def _mean_pageforge_savings(savings):
    fracs = [by_engine["pageforge"].savings_frac
             for by_engine in savings.values()]
    return sum(fracs) / len(fracs)


def test_mean_savings_near_paper(savings):
    """The paper reports 48% on average; the synthetic images are built
    to the same population mix, so the mean must land nearby."""
    mean = _mean_pageforge_savings(savings)
    assert 0.40 <= mean <= 0.56, mean


def test_ksm_and_pageforge_identical(savings):
    for app, by_engine in savings.items():
        assert by_engine["ksm"].pages_after == \
            by_engine["pageforge"].pages_after, app


def test_zero_pages_collapse(savings):
    for app, by_engine in savings.items():
        after = by_engine["pageforge"].after_by_category
        assert after.get("zero", 0) == 1, app


def test_twice_as_many_vms(savings):
    """~48% savings supports deploying ~2x the VMs."""
    supported = 1.0 / (1.0 - _mean_pageforge_savings(savings))
    assert supported >= 1.7, supported
