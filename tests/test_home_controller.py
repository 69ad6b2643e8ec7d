"""Tests for PageForge module placement across memory controllers.

Section 4.1 places one PageForge module in one (home) memory
controller; ``home_controller_for`` is the single place that choice is
made.  These tests pin the placement logic and its wiring through the
timed system's backend.
"""

import dataclasses

import pytest

from repro.common.config import (
    PageForgeConfig,
    TAILBENCH_APPS,
    default_machine_config,
)
from repro.mem import MemoryController
from repro.mem.controller import home_controller_for
from repro.sim import ServerSystem, SimulationScale

TINY = SimulationScale(
    pages_per_vm=100, n_vms=2, duration_s=0.08, warmup_s=0.08,
)

APP = TAILBENCH_APPS["moses"]


def make_controllers(memory, n):
    return [MemoryController(i, memory, verify_ecc=False) for i in range(n)]


class TestHomeControllerFor:
    def test_default_home_is_controller_zero(self, memory):
        controllers = make_controllers(memory, 2)
        home = home_controller_for(controllers, PageForgeConfig())
        assert home is controllers[0]

    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_home_follows_config(self, memory, index):
        controllers = make_controllers(memory, 4)
        config = PageForgeConfig(home_memory_controller=index)
        assert home_controller_for(controllers, config) \
            is controllers[index]

    def test_out_of_range_home_raises(self, memory):
        controllers = make_controllers(memory, 2)
        config = PageForgeConfig(home_memory_controller=5)
        with pytest.raises(IndexError):
            home_controller_for(controllers, config)


class TestSystemPlacement:
    def test_backend_engine_sits_at_configured_home(self):
        base = default_machine_config()
        machine = dataclasses.replace(
            base,
            pageforge=dataclasses.replace(
                base.pageforge, home_memory_controller=1,
            ),
        )
        system = ServerSystem(
            APP, mode="pageforge", machine=machine, scale=TINY, seed=3,
        )
        engine_controller = system.pf_driver.engine.controller
        assert engine_controller is system.controllers[1]
        assert engine_controller.index == 1

    def test_default_placement_and_traffic_at_home(self):
        system = ServerSystem(APP, mode="pageforge", scale=TINY, seed=3)
        home = system.pf_driver.engine.controller
        assert home is system.controllers[0]
        system.run()
        # The engine's scans move lines through its home controller.
        assert home.stats.total_reads > 0
