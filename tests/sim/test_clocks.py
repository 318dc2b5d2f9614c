"""Unit tests for ordering services."""

import pytest

from repro.replica.sequencer import Sequencer
from repro.sim.clocks import LamportClock


class TestLamportClock:
    def test_tick_increments(self):
        clock = LamportClock(0)
        assert clock.tick() == (1, 0)
        assert clock.tick() == (2, 0)

    def test_witness_jumps_past_remote(self):
        clock = LamportClock(0)
        stamp = clock.witness((10, 3))
        assert stamp == (11, 0)
        assert clock.tick() == (12, 0)

    def test_witness_of_older_stamp_still_ticks(self):
        clock = LamportClock(0)
        clock.tick()
        clock.tick()
        assert clock.witness((1, 9)) == (3, 0)

    def test_stamps_totally_ordered_across_sites(self):
        a, b = LamportClock(0), LamportClock(1)
        sa, sb = a.tick(), b.tick()
        assert sa != sb
        assert (sa < sb) or (sb < sa)

    def test_site_index_breaks_ties(self):
        assert LamportClock(0).tick() < LamportClock(1).tick()

    def test_negative_site_index_rejected(self):
        with pytest.raises(ValueError):
            LamportClock(-1)

    def test_causality_monotone(self):
        """send -> receive never decreases the receiver's next stamp."""
        a, b = LamportClock(0), LamportClock(1)
        sent = a.tick()
        received = b.witness(sent)
        assert received > sent


class TestSequencer:
    def test_gap_free_sequence(self):
        server = Sequencer()
        orders = [server.next_order() for _ in range(5)]
        assert orders == [(i, 0) for i in range(1, 6)]
