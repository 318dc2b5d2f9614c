"""COMPE over TCP: crash-safe backward recovery.

Bottom-up coverage of sagas: the engine contract that replica state is
a pure function of (checkpoint, inbox replay) — exercised by crashing
a replay at *every* record boundary and re-replaying the full inbox —
the late-decision race (a third replica hears the verdict before the
update it decides), checkpoint/restore of the full COMPE tables, and
cluster-level crash/restart, abort after log compaction, and disk-wipe
rejoin around an abort storm.  The engine keeps no file: an undo step
is re-derived from the logged update, or read from the checkpoint once
compaction has dropped that update.
"""

import asyncio

import pytest

from repro.core.operations import DecrementOp, IncrementOp, WriteOp
from repro.live import FaultPlan, LinkFaults, LiveCluster, LiveETFailed
from repro.live.engine import make_engine
from repro.replica.mset import MSet, MSetKind


def run(coro):
    return asyncio.run(coro)


FAST = dict(heartbeat_interval=0.1, suspect_after=0.4)


# ---------------------------------------------------------------------------
# Crash-at-every-boundary engine recovery.
#
# The server's recovery contract: engine state is rebuilt by replaying
# the durable inbox from scratch through a fresh engine.  A crash can
# land between any two accepts — so for every prefix of a saga's MSet
# sequence we "crash" (drop the engine) and re-replay the FULL
# sequence, asserting the recovered replica matches one that never
# crashed.
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


async def _seeded_engine():
    engine = make_engine("compe", "site0")
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
    def test_replay_recovers_from_any_crash_point(self):
        async def scenario():
            reference = await _seeded_engine()
            msets = _saga_msets(reference)
            for mset in msets:
                reference.accept(mset)
            want = _observable(reference)
            # The abort storm undid both steps: back to the seeds.
            assert want["values"] == {"a": 10, "b": 10}
            assert want["compensations"] == 2

            for crash_after in range(len(msets) + 1):
                first = await _seeded_engine()
                plan = _saga_msets(first)
                for mset in plan[:crash_after]:
                    first.accept(mset)
                # crash: in-memory state gone

                recovered = await _seeded_engine()
                for mset in plan:  # full durable-inbox replay
                    recovered.accept(mset)
                got = _observable(recovered)
                assert got == want, "crash after %d" % crash_after

        run(scenario())

    def test_decision_before_update_replay_order(self):
        """A third replica can hear the verdict (decider's channel)
        before the update (origin's channel) — in live delivery and in
        recovery replay alike.  Both orders end identically."""

        async def scenario():
            engine = await _seeded_engine()
            msets = _saga_msets(engine)
            u1, u2, d2, d1 = msets
            for mset in (d1, d2, u1, u2):  # decisions first
                engine.accept(mset)
            got = _observable(engine)
            assert got["values"] == {"a": 10, "b": 10}
            assert got["compensations"] == 2
            assert sorted(got["compensated"]) == ["site0:1", "site0:2"]

        run(scenario())

    def test_checkpoint_restore_round_trips_compe_tables(self):
        async def scenario():
            engine = await _seeded_engine()
            msets = _saga_msets(engine)
            # Stop mid-story: one step undecided, one compensated.
            for mset in msets[:3]:
                engine.accept(mset)
            image = engine.checkpoint()
            clone = make_engine("compe", "site0")
            clone.restore(image)
            assert clone.checkpoint() == image
            assert _observable(clone) == _observable(engine)
            # The restored replica still resolves the open step.
            clone.accept(msets[3])
            engine.accept(msets[3])
            assert _observable(clone) == _observable(engine)

        run(scenario())

    def test_checkpoint_alone_serves_a_later_abort(self):
        """Once compaction drops the updates, the checkpoint is the only
        record of how to undo them: a fresh engine restored from it,
        fed only the decisions, compensates each step exactly once."""

        async def scenario():
            engine = await _seeded_engine()
            u1, u2, d2, d1 = _saga_msets(engine)
            engine.accept(u1)
            engine.accept(u2)
            image = engine.checkpoint()

            restored = make_engine("compe", "site0")
            restored.restore(image)
            assert restored.store.as_dict() == {"a": 9, "b": 8}
            for mset in (d2, d1, d1):  # the last one a duplicate replay
                restored.accept(mset)
            got = _observable(restored)
            assert got["values"] == {"a": 10, "b": 10}
            assert got["compensations"] == 2
            assert sorted(got["compensated"]) == ["site0:1", "site0:2"]

        run(scenario())

    def test_compe_rejects_uncompensatable_operations(self):
        engine = make_engine("compe", "site0")
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

    def test_abort_after_compaction_compensates_from_the_checkpoint(
        self, tmp_path
    ):
        """A committed saga step is snapshotted and compacted out of
        every log, then every replica restarts: the checkpoint's undo
        step is the only record of how to undo it, and a later abort
        still compensates it exactly once everywhere."""

        async def scenario():
            cluster = LiveCluster(
                n_sites=3, method="compe", data_dir=tmp_path, **FAST
            )
            await cluster.start()
            try:
                client = await cluster.client(cluster.names[0])
                await client.increment("acct", 100)
                step = await client.update(
                    [DecrementOp("acct", 30)], saga="pay"
                )
                tid = step["tid"]
                await cluster.settle()
                for server in cluster.servers.values():
                    await server.take_snapshot()
                await client.close()

                for name in list(cluster.names):
                    await cluster.kill(name)
                    logs = list((tmp_path / name).glob("**/*.log"))
                    assert logs
                    for path in logs:
                        assert '"%s"' % tid not in path.read_text(), path
                    await cluster.restart(name)
                    assert cluster.servers[name].engine.log.records_of(tid)
                await cluster.settle(timeout=30)

                decider = await cluster.client(cluster.names[1])
                reply = await decider.decide("abort", saga="pay")
                assert reply["compensated"] == [tid]
                await cluster.settle(timeout=30)
                assert await cluster.converged()
                values = await cluster.site_values()
                assert {site: v["acct"] for site, v in values.items()} == {
                    site: 100 for site in cluster.names
                }
                stats = await cluster.site_stats()
                assert {site: s["compensations"] for site, s in stats.items()} == {
                    site: 1 for site in cluster.names
                }
                await decider.close()
            finally:
                await cluster.stop()

        run(scenario())

    def test_wipe_mid_storm_rejoins_with_compe_state(self, tmp_path):
        """Disk wipe destroys the victim's logs and snapshot mid-storm;
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
                assert cluster.servers[victim].recovery.installs >= 1
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

    def test_a_wiped_replica_installs_though_its_survey_is_slow(
        self, tmp_path
    ):
        """The wiped victim's survey reaches site0 only after site0's
        first batch frame to it: the victim, which holds nothing, must
        not answer that frame (or a heartbeat) with a durability claim
        site0 rewinds its channel cursor on before the survey reads it.
        The frame, a run past the victim's empty inbox, is itself the
        evidence of a former life, so the victim installs a snapshot
        instead of concluding it booted fresh."""

        async def scenario():
            plan = FaultPlan(seed=1)
            cluster = LiveCluster(
                n_sites=3, method="compe", data_dir=tmp_path, faults=plan,
            )
            await cluster.start()
            try:
                victim = cluster.names[-1]
                client = await cluster.client(cluster.names[0])
                await client.increment("acct", 100)
                for saga in ("s-a", "s-b"):
                    for _ in range(2):
                        await client.update(
                            [DecrementOp("acct", 5)], saga=saga
                        )
                await cluster.settle()
                await client.decide("abort", saga="s-a")

                await cluster.wipe(victim)
                await client.decide("abort", saga="s-b")
                plan.set_link("site0", victim, LinkFaults(
                    delay_min=0.2, delay_max=0.2,
                ))
                for peer in ("site0", "site1"):
                    plan.set_link(victim, peer, LinkFaults(
                        delay_min=0.3, delay_max=0.3,
                    ))
                await cluster.restart(victim)
                await cluster.wait_caught_up(victim, timeout=30)
                await cluster.settle(timeout=30)
                assert await cluster.converged()
                values = await cluster.site_values()
                assert values[victim]["acct"] == 100
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

    def test_a_saga_leaves_the_same_files_as_any_other_method(
        self, tmp_path
    ):
        """COMPE keeps one durable record per update, like every other
        method: after a saga commits one step and aborts another, each
        data dir holds the files a COMMU replica's holds, and no
        compensation log."""

        async def files_after(method, updates):
            data_dir = tmp_path / method
            cluster = LiveCluster(
                n_sites=2, method=method, data_dir=data_dir, **FAST
            )
            await cluster.start()
            try:
                client = await cluster.client(cluster.names[0])
                await updates(client)
                await cluster.settle(timeout=30)
                await client.close()
            finally:
                await cluster.stop()
            return sorted(
                str(path.relative_to(data_dir))
                for path in data_dir.glob("**/*")
                if path.is_file()
            )

        async def saga(client):
            await client.increment("acct", 100)
            await client.update([DecrementOp("acct", 30)], saga="kept")
            await client.decide("commit", saga="kept")
            await client.update([DecrementOp("acct", 10)], saga="undone")
            await client.decide("abort", saga="undone")

        async def increments(client):
            for amount in (100, -30, -10):
                await client.increment("acct", amount)

        async def scenario():
            compe = await files_after("compe", saga)
            assert compe == await files_after("commu", increments)
            assert not any("compensation" in name for name in compe)

        run(scenario())


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="two replicas accept opposite decides for one tid, and "
    "arrival order picks the outcome per replica: ROADMAP item 20(a) "
    "(log a decision only at the update's origin)",
)
def test_conflicting_decides_at_two_replicas_converge(tmp_path):
    """One saga step applied at site0; ``decide commit`` at site1 and
    ``decide abort`` at site2, sent at once.  Both replies list the tid
    as decided; after ``settle`` every replica should hold one outcome.
    Today site0 and site1 hold 5 and site2 holds 0."""

    async def scenario():
        cluster = LiveCluster(
            n_sites=3, method="compe", data_dir=tmp_path, **FAST
        )
        await cluster.start()
        try:
            origin = await cluster.client("site0")
            await origin.update([IncrementOp("k", 5)], saga="s")
            await cluster.settle()
            committer = await cluster.client("site1")
            aborter = await cluster.client("site2")
            await asyncio.gather(
                committer.decide("commit", saga="s"),
                aborter.decide("abort", saga="s"),
            )
            await cluster.settle(timeout=30)
            values = await cluster.site_values()
            for client in (origin, committer, aborter):
                await client.close()
        finally:
            await cluster.stop()
        assert len({repr(v) for v in values.values()}) == 1, values

    run(scenario())
