"""Unit tests for the simulated network."""

import pytest

from repro.sim.events import Simulator
from repro.sim.network import (
    ConstantLatency,
    Network,
    UniformLatency,
)


@pytest.fixture
def sim():
    return Simulator(seed=7)


class TestLatencyModels:
    def test_constant(self, sim):
        assert ConstantLatency(3.0).sample(sim) == 3.0

    def test_uniform_within_bounds(self, sim):
        model = UniformLatency(1.0, 2.0)
        for _ in range(50):
            assert 1.0 <= model.sample(sim) <= 2.0


class TestDelivery:
    def test_message_arrives_after_latency(self, sim):
        net = Network(sim, ConstantLatency(2.5))
        arrived = []
        net.send("a", "b", "hello", lambda p: arrived.append((sim.now, p)))
        sim.run()
        assert arrived == [(2.5, "hello")]

    def test_per_link_latency_override(self, sim):
        net = Network(sim, ConstantLatency(10.0))
        net.set_link_latency("a", "b", ConstantLatency(1.0))
        times = []
        net.send("a", "b", None, lambda p: times.append(sim.now))
        net.send("a", "c", None, lambda p: times.append(sim.now))
        sim.run()
        assert times == [1.0, 10.0]

    def test_loss_rate_validation(self, sim):
        with pytest.raises(ValueError):
            Network(sim, loss_rate=1.0)
        with pytest.raises(ValueError):
            Network(sim, loss_rate=-0.1)

    def test_lossy_network_drops_some(self, sim):
        net = Network(sim, ConstantLatency(1.0), loss_rate=0.5)
        delivered = []
        for _ in range(100):
            net.send("a", "b", None, lambda p: delivered.append(p))
        sim.run()
        assert 0 < len(delivered) < 100
        assert net.stats.lost == 100 - len(delivered)

    def test_on_drop_invoked_for_lost_messages(self, sim):
        net = Network(sim, ConstantLatency(1.0), loss_rate=0.99)
        dropped = []
        for _ in range(50):
            net.send("a", "b", "m", lambda p: None, lambda p: dropped.append(p))
        sim.run()
        assert len(dropped) == net.stats.lost


class TestPartitions:
    def test_partitioned_sites_cannot_communicate(self, sim):
        net = Network(sim, ConstantLatency(1.0))
        net.partition([("a",), ("b",)])
        delivered, dropped = [], []
        net.send("a", "b", None, delivered.append, dropped.append)
        sim.run()
        assert not delivered and len(dropped) == 1
        assert net.stats.blocked_by_partition == 1

    def test_same_group_still_communicates(self, sim):
        net = Network(sim, ConstantLatency(1.0))
        net.partition([("a", "b"), ("c",)])
        delivered = []
        net.send("a", "b", None, delivered.append)
        sim.run()
        assert len(delivered) == 1

    def test_heal_restores_connectivity(self, sim):
        net = Network(sim, ConstantLatency(1.0))
        net.partition([("a",), ("b",)])
        net.heal()
        delivered = []
        net.send("a", "b", None, delivered.append)
        sim.run()
        assert len(delivered) == 1

    def test_partition_mid_flight_drops(self, sim):
        net = Network(sim, ConstantLatency(5.0))
        delivered, dropped = [], []
        net.send("a", "b", None, delivered.append, dropped.append)
        sim.schedule(1.0, lambda: net.partition([("a",), ("b",)]))
        sim.run()
        assert not delivered and len(dropped) == 1


class TestSiteFailures:
    def test_down_destination_drops(self, sim):
        net = Network(sim, ConstantLatency(1.0))
        net.site_down("b")
        delivered, dropped = [], []
        net.send("a", "b", None, delivered.append, dropped.append)
        sim.run()
        assert not delivered and len(dropped) == 1

    def test_down_source_drops(self, sim):
        net = Network(sim, ConstantLatency(1.0))
        net.site_down("a")
        dropped = []
        net.send("a", "b", None, lambda p: None, dropped.append)
        sim.run()
        assert len(dropped) == 1

    def test_crash_mid_flight_drops(self, sim):
        net = Network(sim, ConstantLatency(5.0))
        delivered, dropped = [], []
        net.send("a", "b", None, delivered.append, dropped.append)
        sim.schedule(1.0, lambda: net.site_down("b"))
        sim.run()
        assert not delivered and len(dropped) == 1

    def test_recovery_restores(self, sim):
        net = Network(sim, ConstantLatency(1.0))
        net.site_down("b")
        net.site_up("b")
        delivered = []
        net.send("a", "b", None, delivered.append)
        sim.run()
        assert len(delivered) == 1


class TestBandwidth:
    def test_validation(self, sim):
        with pytest.raises(ValueError):
            Network(sim, bandwidth=0)
        with pytest.raises(ValueError):
            Network(sim, bandwidth=-1.0)

    def test_transmission_time_added(self, sim):
        # bandwidth 0.5 units/time -> a size-1 message takes 2 time
        # units to serialize, on top of 1 unit propagation.
        net = Network(sim, ConstantLatency(1.0), bandwidth=0.5)
        times = []
        net.send("a", "b", None, lambda p: times.append(sim.now))
        sim.run()
        assert times == [3.0]

    def test_queueing_behind_earlier_traffic(self, sim):
        net = Network(sim, ConstantLatency(1.0), bandwidth=0.5)
        times = []
        net.send("a", "b", 1, lambda p: times.append(sim.now))
        net.send("a", "b", 2, lambda p: times.append(sim.now))
        sim.run()
        # Second message serializes behind the first: 4 + 1 latency.
        assert times == [3.0, 5.0]

    def test_distinct_links_do_not_queue(self, sim):
        net = Network(sim, ConstantLatency(1.0), bandwidth=0.5)
        times = []
        net.send("a", "b", 1, lambda p: times.append(("b", sim.now)))
        net.send("a", "c", 2, lambda p: times.append(("c", sim.now)))
        sim.run()
        assert sorted(times) == [("b", 3.0), ("c", 3.0)]

    def test_message_size_scales_transmission(self, sim):
        net = Network(sim, ConstantLatency(1.0), bandwidth=1.0)
        times = []
        net.send("a", "b", None, lambda p: times.append(sim.now), size=4.0)
        sim.run()
        assert times == [5.0]

    def test_idle_link_resets_queueing(self, sim):
        net = Network(sim, ConstantLatency(1.0), bandwidth=1.0)
        times = []
        net.send("a", "b", 1, lambda p: times.append(sim.now))
        # Second send long after the first drained: no queueing.
        sim.schedule(10.0, lambda: net.send(
            "a", "b", 2, lambda p: times.append(sim.now)
        ))
        sim.run()
        assert times == [2.0, 12.0]

    def test_infinite_bandwidth_is_default(self, sim):
        net = Network(sim, ConstantLatency(1.0))
        times = []
        for _ in range(5):
            net.send("a", "b", None, lambda p: times.append(sim.now))
        sim.run()
        assert times == [1.0] * 5
