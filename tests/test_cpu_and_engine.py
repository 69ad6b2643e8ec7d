"""Tests for repro.cpu (cores, scheduler) and the event engine."""

import pytest

from repro.common.rng import DeterministicRNG
from repro.cpu import Core, KernelTaskScheduler
from repro.sim.engine import EventQueue


class TestCore:
    def test_utilization(self):
        core = Core(0)
        core.stats.query_busy_s = 2.0
        core.stats.kernel_busy_s = 1.0
        assert core.stats.utilization(10.0) == pytest.approx(0.3)
        assert core.stats.kernel_share(10.0) == pytest.approx(0.1)


class TestScheduler:
    def test_placements_cover_and_sum(self):
        sched = KernelTaskScheduler(10, DeterministicRNG(1, "s"),
                                    stickiness=0.5)
        for _ in range(1000):
            sched.next_core()
        assert sum(sched.placements) == 1000
        assert all(0 <= c < 10 for c in [sched.current_core])

    def test_stickiness_skews_occupancy(self):
        """High stickiness must concentrate placements (Table 4's
        max >> avg per-core KSM share)."""
        sched = KernelTaskScheduler(10, DeterministicRNG(2, "s"),
                                    stickiness=0.95)
        for _ in range(400):
            sched.next_core()
        shares = sched.placement_shares()
        assert max(shares) > 2.5 * (1.0 / 10)

    def test_zero_stickiness_spreads(self):
        sched = KernelTaskScheduler(4, DeterministicRNG(3, "s"),
                                    stickiness=0.0)
        for _ in range(4000):
            sched.next_core()
        shares = sched.placement_shares()
        assert max(shares) < 0.4

    def test_invalid_stickiness(self):
        with pytest.raises(ValueError):
            KernelTaskScheduler(4, DeterministicRNG(4, "s"), stickiness=1.5)

    def test_empty_shares(self):
        sched = KernelTaskScheduler(4, DeterministicRNG(5, "s"))
        assert sched.placement_shares() == [0.0] * 4


class TestEventQueue:
    def test_ordering(self):
        queue = EventQueue()
        log = []
        queue.schedule(2.0, log.append, "b")
        queue.schedule(1.0, log.append, "a")
        queue.schedule(3.0, log.append, "c")
        queue.run()
        assert log == ["a", "b", "c"]

    def test_fifo_tiebreak(self):
        queue = EventQueue()
        log = []
        queue.schedule(1.0, log.append, 1)
        queue.schedule(1.0, log.append, 2)
        queue.run()
        assert log == [1, 2]

    def test_now_advances(self):
        queue = EventQueue()
        seen = []
        queue.schedule(1.5, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [1.5]

    def test_schedule_in(self):
        queue = EventQueue()
        log = []
        queue.schedule(1.0, lambda: queue.schedule_in(0.5, log.append, "x"))
        queue.run()
        assert log == ["x"]
        assert queue.now == pytest.approx(1.5)

    def test_run_until_stops(self):
        queue = EventQueue()
        log = []
        queue.schedule(1.0, log.append, "early")
        queue.schedule(5.0, log.append, "late")
        queue.run_until(2.0)
        assert log == ["early"]
        assert queue.now == 2.0
        assert len(queue) == 1

    def test_past_scheduling_rejected(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.run()
        with pytest.raises(ValueError):
            queue.schedule(0.5, lambda: None)

    def test_cascading_events(self):
        queue = EventQueue()
        counter = {"n": 0}

        def tick():
            counter["n"] += 1
            if counter["n"] < 10:
                queue.schedule_in(1.0, tick)

        queue.schedule(0.0, tick)
        queue.run()
        assert counter["n"] == 10
        assert queue.events_dispatched == 10
