"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.events import SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(9.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            sim.schedule(2.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [3.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_call_now_runs_at_current_instant(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: sim.call_now(lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, lambda: seen.append(1))
        handle.cancel()
        sim.run()
        assert seen == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending == 1


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("early"))
        sim.schedule(10.0, lambda: seen.append("late"))
        executed = sim.run(until=5.0)
        assert executed == 1
        assert seen == ["early"]
        assert sim.now == 5.0

    def test_run_until_then_resume(self):
        sim = Simulator()
        seen = []
        sim.schedule(10.0, lambda: seen.append("late"))
        sim.run(until=5.0)
        sim.run()
        assert seen == ["late"]

    def test_max_events_bounds_execution(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        executed = sim.run(max_events=4)
        assert executed == 4
        assert sim.pending == 6

    def test_step_returns_false_when_empty(self):
        assert not Simulator().step()

    def test_quiescence(self):
        sim = Simulator()
        assert sim.is_quiescent()
        sim.schedule(1.0, lambda: None)
        assert not sim.is_quiescent()
        sim.run()
        assert sim.is_quiescent()


class TestDeterminism:
    def test_same_seed_same_randomness(self):
        a = Simulator(seed=42)
        b = Simulator(seed=42)
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]

    def test_different_seed_different_randomness(self):
        a = Simulator(seed=1)
        b = Simulator(seed=2)
        assert a.rng.random() != b.rng.random()
