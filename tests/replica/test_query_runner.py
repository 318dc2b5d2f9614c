"""Direct unit tests for the shared QueryRunner."""

import pytest

from repro.core.operations import ReadOp
from repro.core.transactions import (
    ETStatus,
    QueryET,
    reset_tid_counter,
)
from repro.replica.base import QueryRunner, ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _rig():
    system = ReplicatedSystem(
        CommutativeOperations(),
        SystemConfig(n_sites=1, seed=1, initial=(("a", 10), ("b", 20))),
    )
    return system, system.sites["site0"]


def _runner(system, site, et, admit, **kw):
    done = []
    runner = QueryRunner(
        system,
        et,
        site,
        admit,
        done.append,
        inconsistency_of=lambda: 0,
        overlap_of=lambda: (),
        **kw,
    )
    return runner, done


class TestHappyPath:
    def test_reads_all_keys_in_order(self):
        system, site = _rig()
        et = QueryET([ReadOp("a"), ReadOp("b")])
        order = []

        def admit(key):
            order.append(key)
            return True, site.read(et.tid, key)

        runner, done = _runner(system, site, et, admit)
        runner.start()
        system.sim.run()
        assert order == ["a", "b"]
        assert done[0].values == {"a": 10, "b": 20}
        assert done[0].status == ETStatus.COMMITTED

    def test_reads_take_time(self):
        system, site = _rig()
        et = QueryET([ReadOp("a"), ReadOp("b")])

        def admit(key):
            return True, site.read(et.tid, key)

        runner, done = _runner(system, site, et, admit)
        runner.start()
        system.sim.run()
        assert done[0].latency == pytest.approx(
            2 * site.config.read_time
        )


class TestBlockingModes:
    def test_retry_mode_counts_waits(self):
        system, site = _rig()
        et = QueryET([ReadOp("a")])
        gate = [False]

        def admit(key):
            if not gate[0]:
                return False, None
            return True, site.read(et.tid, key)

        runner, done = _runner(system, site, et, admit)
        runner.start()
        system.sim.schedule(1.0, lambda: gate.__setitem__(0, True))
        system.sim.run()
        assert done[0].status == ETStatus.COMMITTED
        assert done[0].waits >= 1

    def test_restart_mode_rereads_from_scratch(self):
        system, site = _rig()
        et = QueryET([ReadOp("a"), ReadOp("b")])
        reads = []
        block_second_once = [True]
        starts = []

        def admit(key):
            if key == "b" and block_second_once[0]:
                block_second_once[0] = False
                return False, None

            reads.append(key)
            return True, site.read(et.tid, key)

        runner, done = _runner(
            system, site, et, admit,
            on_start=lambda: starts.append(system.sim.now),
        )
        runner.start()
        system.sim.run()
        # "a" was read, then the blocked "b" discarded it; both were
        # re-read after the restart.
        assert reads == ["a", "a", "b"]
        # Each attempt starts at its first read: one read time in, and
        # one retry delay plus one read time after the block.
        rt, retry = site.config.read_time, QueryRunner.RETRY_DELAY
        assert starts == [rt, 2 * rt + retry + rt]
        assert done[0].values == {"a": 10, "b": 20}


class TestCrashHandling:
    def test_crash_before_read_aborts(self):
        system, site = _rig()
        et = QueryET([ReadOp("a")])

        def admit(key):
            return True, site.read(et.tid, key)

        runner, done = _runner(system, site, et, admit)
        site.crash()
        runner.start()
        system.sim.run()
        assert done[0].status == ETStatus.ABORTED

    def test_crash_mid_read_aborts(self):
        system, site = _rig()
        et = QueryET([ReadOp("a"), ReadOp("b")])

        def admit(key):
            return True, site.read(et.tid, key)

        runner, done = _runner(system, site, et, admit)
        runner.start()
        system.sim.schedule(
            site.config.read_time * 1.5, site.crash
        )
        system.sim.run()
        assert done[0].status == ETStatus.ABORTED
