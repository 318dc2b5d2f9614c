"""Unit tests for replica sites and failure injection."""

import pytest

from repro.core.operations import IncrementOp, ReadOp, WriteOp
from repro.sim.events import Simulator
from repro.sim.failures import CrashEvent, FailureInjector, PartitionEvent
from repro.sim.network import ConstantLatency, Network
from repro.sim.site import Site, SiteConfig


@pytest.fixture
def site():
    return Site("s0", Simulator(seed=1))


class TestLocalExecution:
    def test_apply_op_updates_store(self, site):
        site.apply_op(1, IncrementOp("x", 5))
        assert site.store.get("x") == 5

    def test_apply_op_records_history(self, site):
        site.apply_op(1, WriteOp("x", 3))
        assert len(site.history) == 1
        assert [ev.tid for ev in site.history] == [1]

    def test_read_returns_default_for_missing(self, site):
        assert site.read(1, "nope") == 0

    def test_values_reports_store_contents(self, site):
        site.apply_op(1, WriteOp("x", 3))
        assert site.values() == {"x": 3}


class TestCrashModel:
    def test_crashed_site_rejects_work(self, site):
        site.crash()
        with pytest.raises(RuntimeError):
            site.apply_op(1, WriteOp("x", 1))
        with pytest.raises(RuntimeError):
            site.read(1, "x")

    def test_store_survives_crash(self, site):
        site.apply_op(1, WriteOp("x", 3))
        site.crash()
        site.recover()
        assert site.store.get("x") == 3

    def test_hooks_fire_once(self, site):
        crashes, recoveries = [], []
        site.on_crash.append(lambda: crashes.append(1))
        site.on_recover.append(lambda: recoveries.append(1))
        site.crash()
        site.crash()  # idempotent
        site.recover()
        site.recover()  # idempotent
        assert crashes == [1] and recoveries == [1]


class TestFailureInjector:
    def _rig(self):
        sim = Simulator(seed=1)
        net = Network(sim, ConstantLatency(1.0))
        sites = {"s0": Site("s0", sim), "s1": Site("s1", sim)}
        return sim, net, sites

    def test_crash_event_schedule(self):
        sim, net, sites = self._rig()
        injector = FailureInjector(sim, net, sites)
        injector.schedule_crash(CrashEvent("s0", at=5.0, duration=3.0))
        delivered = []
        sim.run(until=6.0)
        assert sites["s0"].crashed
        net.send("s1", "s0", "lost", delivered.append)  # lands at 7
        sim.run()
        assert not sites["s0"].crashed
        net.send("s1", "s0", "kept", delivered.append)
        sim.run()
        assert delivered == ["kept"]

    def test_partition_event_schedule(self):
        sim, net, sites = self._rig()
        healed = []
        injector = FailureInjector(
            sim, net, sites, on_heal=lambda: healed.append(sim.now)
        )
        injector.schedule_partition(
            PartitionEvent((("s0",), ("s1",)), at=2.0, duration=4.0)
        )
        sim.run(until=3.0)
        assert net.is_partitioned("s0", "s1")
        sim.run()
        assert not net.is_partitioned("s0", "s1")
        assert healed == [6.0]
