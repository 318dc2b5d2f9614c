"""COMPE over TCP: the compensation log and crash-safe backward recovery.

Bottom-up coverage of the saga tentpole: the durable compensation-log
format (append gating, torn-tail tolerance, retirement compaction),
the engine contract that replica state is a pure function of
(checkpoint, inbox replay) — exercised by crashing a replay at *every*
record boundary and re-replaying the full inbox over the surviving
log — the late-decision race (a third replica hears the verdict before
the update it decides), checkpoint/restore of the full COMPE tables,
and cluster-level crash/restart and disk-wipe rejoin around an abort
storm.
"""

import asyncio

import pytest

from repro.core.operations import DecrementOp, IncrementOp, WriteOp
from repro.live import CompensationLog, LiveCluster, LiveETFailed
from repro.live.engine import make_engine
from repro.replica.mset import MSet, MSetKind


def run(coro):
    return asyncio.run(coro)


FAST = dict(heartbeat_interval=0.1, suspect_after=0.4)
PEERS = ("site0", "site1", "site2")


# ---------------------------------------------------------------------------
# The durable compensation log.
# ---------------------------------------------------------------------------


class TestCompensationLog:
    def _log(self, tmp_path, **kwargs):
        return CompensationLog(tmp_path / "compensation.log", **kwargs)

    def test_round_trip_survives_reopen(self, tmp_path):
        log = self._log(tmp_path)
        ops = [["dec", "k", 1]]
        assert log.log_undo("site0:1", ops, ("k",), "saga-a")
        assert log.log_decision("site0:1", "abort")
        log.sync()
        log.close()

        reopened = self._log(tmp_path)
        assert reopened.undo_ops("site0:1") == ops
        assert reopened.decided("site0:1") == "abort"
        reopened.close()

    def test_duplicate_appends_are_gated(self, tmp_path):
        log = self._log(tmp_path)
        assert log.log_undo("site0:1", [["dec", "k", 1]], ("k",))
        assert not log.log_undo("site0:1", [["dec", "k", 1]], ("k",))
        assert log.log_decision("site0:1", "commit")
        assert not log.log_decision("site0:1", "commit")
        # The first decision is final: a conflicting replay is ignored.
        assert not log.log_decision("site0:1", "abort")
        assert log.decided("site0:1") == "commit"
        assert log.live_records == 2
        log.close()

    def test_torn_tail_reads_as_intact_prefix(self, tmp_path):
        log = self._log(tmp_path)
        log.log_undo("site0:1", [["dec", "k", 1]], ("k",))
        log.log_undo("site0:2", [["dec", "k", 2]], ("k",))
        log.sync()
        log.close()
        path = tmp_path / "compensation.log"
        raw = path.read_bytes()
        # Crash mid-append: the last record is half-written.
        path.write_bytes(raw[: len(raw) - len(raw.splitlines()[-1]) // 2 - 1])

        reopened = self._log(tmp_path)
        assert reopened.undo_ops("site0:1") == [["dec", "k", 1]]
        assert reopened.undo_ops("site0:2") is None
        reopened.close()

    def test_compaction_keeps_undecided_prunes_decided(self, tmp_path):
        log = self._log(tmp_path)
        for i in range(6):
            log.log_undo("site0:%d" % i, [["dec", "k", i]], ("k",))
        for i in range(4):
            log.log_decision("site0:%d" % i, "commit")
        assert sorted(log.undecided_tids()) == ["site0:4", "site0:5"]
        assert log.reclaimable() > 0
        log.compact_retired()
        # The running process still gates duplicates of retired tids
        # through its in-memory decisions map...
        assert log.decided("site0:0") == "commit"
        assert not log.log_decision("site0:0", "commit")
        log.close()

        reopened = self._log(tmp_path)
        # ...but on disk only undecided tids survive: retired records
        # are re-derivable from checkpoint + inbox replay, so recovery
        # re-learns those verdicts from the replayed decision MSets.
        assert sorted(reopened.undecided_tids()) == ["site0:4", "site0:5"]
        assert reopened.undo_ops("site0:5") == [["dec", "k", 5]]
        assert reopened.decided("site0:0") is None
        assert reopened.live_records == 2
        reopened.close()

    def test_records_total_counts_lifetime_appends(self, tmp_path):
        log = self._log(tmp_path)
        base = log.records_total
        log.log_undo("site0:1", [["dec", "k", 1]], ("k",))
        log.log_decision("site0:1", "commit")
        log.log_decision("site0:1", "commit")  # gated, not appended
        assert log.records_total == base + 2
        log.close()


# ---------------------------------------------------------------------------
# Crash-at-every-boundary engine recovery.
#
# The server's recovery contract: engine state is rebuilt by replaying
# the durable inbox from scratch through a fresh engine that reopened
# the surviving compensation log.  A crash can land between any two
# accepts — so for every prefix of a saga's MSet sequence we "crash"
# (drop the engine, keep the log) and re-replay the FULL sequence,
# asserting the recovered replica matches one that never crashed.
# ---------------------------------------------------------------------------


def _saga_msets(engine):
    """One saga of two steps plus a third-party abort, as delivered
    MSets: U1, U2, then decisions in reverse submission order."""
    u1 = engine.make_mset(
        "site0:1", (DecrementOp("a", 1),), info=(("saga", "s1"),)
    )
    u2 = engine.make_mset(
        "site0:2", (DecrementOp("b", 2),), info=(("saga", "s1"),)
    )
    d2 = MSet(
        "site1:1", MSetKind.ABORT, (), origin="site1",
        info=(("decides", "site0:2"),),
    )
    d1 = MSet(
        "site1:2", MSetKind.ABORT, (), origin="site1",
        info=(("decides", "site0:1"),),
    )
    return [u1, u2, d2, d1]


async def _seeded_engine(data_dir):
    engine = make_engine("compe", "site0", PEERS)
    engine.attach_storage(data_dir)
    engine.accept(
        engine.make_mset("seed:1", (IncrementOp("a", 10),)), local=True
    )
    engine.accept(
        engine.make_mset("seed:2", (IncrementOp("b", 10),)), local=True
    )
    return engine


def _observable(engine):
    return {
        "values": dict(engine.store.as_dict()),
        "decided": dict(engine._decided),
        "compensated": engine.compensated_tids(),
        "compensations": engine.compensation_count,
        "sagas": engine.saga_members("s1"),
    }


class TestCrashAtEveryBoundary:
    def test_replay_recovers_from_any_crash_point(self, tmp_path):
        async def scenario():
            reference_dir = tmp_path / "reference"
            reference_dir.mkdir()
            reference = await _seeded_engine(reference_dir)
            msets = _saga_msets(reference)
            for mset in msets:
                reference.accept(mset)
            want = _observable(reference)
            reference.close()
            # The abort storm undid both steps: back to the seeds.
            assert want["values"] == {"a": 10, "b": 10}
            assert want["compensations"] == 2

            for crash_after in range(len(msets) + 1):
                crash_dir = tmp_path / ("crash%d" % crash_after)
                crash_dir.mkdir()
                first = await _seeded_engine(crash_dir)
                plan = _saga_msets(first)
                for mset in plan[:crash_after]:
                    first.accept(mset)
                first.close()  # crash: in-memory state gone, log kept

                recovered = await _seeded_engine(crash_dir)
                for mset in plan:  # full durable-inbox replay
                    recovered.accept(mset)
                got = _observable(recovered)
                recovered.close()
                assert got == want, "crash after %d" % crash_after

        run(scenario())

    def test_undo_logged_but_update_unapplied(self, tmp_path):
        """The narrowest window: the undo record hit the log but the
        crash came before the update was accepted (no inbox record).
        Replay delivers the update normally; the pre-logged undo step
        must not double-append or corrupt the tables."""

        async def scenario():
            engine = await _seeded_engine(tmp_path)
            u1 = engine.make_mset(
                "site0:1", (DecrementOp("a", 1),), info=(("saga", "s1"),)
            )
            engine.compensation_log.log_undo(
                "site0:1", [["inc", "a", 1]], ("a",), "s1"
            )
            engine.close()

            recovered = await _seeded_engine(tmp_path)
            recovered.accept(u1)
            assert recovered.store.as_dict()["a"] == 9
            assert recovered.saga_members("s1") == ["site0:1"]
            assert recovered.compensation_log.live_records >= 1
            d1 = MSet(
                "site1:1", MSetKind.ABORT, (), origin="site1",
                info=(("decides", "site0:1"),),
            )
            recovered.accept(d1)
            assert recovered.store.as_dict()["a"] == 10
            assert recovered.compensation_count == 1
            recovered.close()

        run(scenario())

    def test_decision_before_update_replay_order(self, tmp_path):
        """A third replica can hear the verdict (decider's channel)
        before the update (origin's channel) — in live delivery and in
        recovery replay alike.  Both orders end identically."""

        async def scenario():
            engine = await _seeded_engine(tmp_path)
            msets = _saga_msets(engine)
            u1, u2, d2, d1 = msets
            for mset in (d1, d2, u1, u2):  # decisions first
                engine.accept(mset)
            got = _observable(engine)
            engine.close()
            assert got["values"] == {"a": 10, "b": 10}
            assert got["compensations"] == 2
            assert sorted(got["compensated"]) == ["site0:1", "site0:2"]

        run(scenario())

    def test_checkpoint_restore_round_trips_compe_tables(self, tmp_path):
        async def scenario():
            engine = await _seeded_engine(tmp_path)
            msets = _saga_msets(engine)
            # Stop mid-story: one step undecided, one compensated.
            for mset in msets[:3]:
                engine.accept(mset)
            image = engine.checkpoint()
            clone = make_engine("compe", "site0", PEERS)
            clone.restore(image)
            assert clone.checkpoint() == image
            assert _observable(clone) == _observable(engine)
            # The restored replica still resolves the open step.
            clone.accept(msets[3])
            engine.accept(msets[3])
            assert _observable(clone) == _observable(engine)
            engine.close()

        run(scenario())

    def test_compe_rejects_uncompensatable_operations(self):
        engine = make_engine("compe", "site0", PEERS)
        with pytest.raises(ValueError):
            engine.validate_update([WriteOp("k", "v")])
        engine.validate_update([IncrementOp("k", 1)])


# ---------------------------------------------------------------------------
# Cluster-level crash/restart and wipe/rejoin around an abort storm.
# ---------------------------------------------------------------------------


class TestSagaClusterRecovery:
    def test_crash_between_steps_and_decision(self, tmp_path):
        """The victim crashes holding acked-but-undecided saga steps;
        after restart the abort decision still compensates them."""

        async def scenario():
            cluster = LiveCluster(
                n_sites=3, method="compe", data_dir=tmp_path, **FAST
            )
            await cluster.start()
            try:
                victim = cluster.names[-1]
                client = await cluster.client(cluster.names[0])
                await client.increment("acct", 100)
                s1 = await client.update(
                    [DecrementOp("acct", 30)], saga="pay"
                )
                s2 = await client.update(
                    [DecrementOp("acct", 10)], saga="pay"
                )
                await cluster.settle()

                await cluster.kill(victim)
                reply = await client.decide("abort", saga="pay")
                assert sorted(reply["compensated"]) == sorted(
                    [s1["tid"], s2["tid"]]
                )
                await cluster.restart(victim)
                await cluster.settle(timeout=30)
                assert await cluster.converged()
                values = await cluster.site_values()
                assert values[victim]["acct"] == 100
                # The restarted victim compensated each step exactly
                # once — recovery replay did not double-apply.
                stats = await cluster.site_stats()
                assert stats[victim]["compensations"] == 2
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())

    def test_wipe_mid_storm_rejoins_with_compe_state(self, tmp_path):
        """Disk wipe destroys the victim's compensation log mid-storm;
        the snapshot install must carry the full COMPE tables so later
        decisions and duplicate replays stay correct."""

        async def scenario():
            cluster = LiveCluster(
                n_sites=3, method="compe", data_dir=tmp_path, **FAST
            )
            await cluster.start()
            try:
                victim = cluster.names[-1]
                client = await cluster.client(cluster.names[0])
                await client.increment("acct", 100)
                steps = []
                for saga in ("s-a", "s-b"):
                    for _ in range(2):
                        reply = await client.update(
                            [DecrementOp("acct", 5)], saga=saga
                        )
                        steps.append(reply["tid"])
                await cluster.settle()
                await client.decide("abort", saga="s-a")

                await cluster.wipe(victim)
                await client.decide("abort", saga="s-b")
                await cluster.restart(victim)
                await cluster.wait_caught_up(victim, timeout=30)
                await cluster.settle(timeout=30)

                assert await cluster.converged()
                values = await cluster.site_values()
                assert values[victim]["acct"] == 100
                assert cluster.servers[victim].catchup_installs >= 1
                # Re-issuing both decisions at the healed victim moves
                # nothing: its installed decision table gates replays.
                vclient = await cluster.client(victim)
                before = (await cluster.site_stats())[victim][
                    "compensations"
                ]
                for saga in ("s-a", "s-b"):
                    retry = await vclient.decide("abort", saga=saga)
                    assert retry["decided"] == []
                after = (await cluster.site_stats())[victim][
                    "compensations"
                ]
                assert after == before
                await vclient.close()
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())

    def test_abort_update_is_honest_after_restart(self, tmp_path):
        """abort=True reports COMPENSATED with the undone tid, and the
        effect is invisible everywhere — including a replica that was
        down when it happened."""

        async def scenario():
            cluster = LiveCluster(
                n_sites=3, method="compe", data_dir=tmp_path, **FAST
            )
            await cluster.start()
            try:
                victim = cluster.names[-1]
                client = await cluster.client(cluster.names[0])
                await client.increment("acct", 50)
                await cluster.settle()
                await cluster.kill(victim)
                with pytest.raises(LiveETFailed) as failure:
                    await client.update(
                        [DecrementOp("acct", 50)], abort=True
                    )
                assert failure.value.code == "COMPENSATED"
                assert len(failure.value.compensated_tids) == 1
                await cluster.restart(victim)
                await cluster.settle(timeout=30)
                assert await cluster.converged()
                values = await cluster.site_values()
                assert values[victim]["acct"] == 50
                await client.close()
            finally:
                await cluster.stop()

        run(scenario())
