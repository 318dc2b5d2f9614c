"""Integration tests: 3-replica live clusters over localhost TCP.

The acceptance scenario for the live runtime: boot real asyncio
servers, drive hundreds of genuinely concurrent update ETs alongside
epsilon-bounded queries, and check the paper's guarantees hold under
real concurrency — every query's observed inconsistency stays within
its epsilon budget, and at quiescence all replicas converge to
one-copy serializable state.  A separate scenario kills a replica
mid-run and restarts it, exercising durable-queue recovery.
"""

import asyncio
import json
import random

import pytest

from repro.consistency import Consistency
from repro.core.operations import IncrementOp, ReadOp
from repro.core.transactions import EpsilonSpec
from repro.live import FaultPlan, LiveCluster, LiveETFailed, channel


def run(coro):
    return asyncio.run(coro)


N_UPDATES = 210  # >= 200 concurrent update ETs per acceptance criteria
KEYS = ["acct0", "acct1", "acct2", "acct3"]


async def _drive_workload(cluster, method):
    """Concurrent updates + epsilon-bounded queries against a cluster."""
    clients = [await cluster.client(name) for name in cluster.names]
    rng = random.Random(42)
    violations = []

    async def one_update(i):
        client = clients[i % len(clients)]
        await client.increment(KEYS[i % len(KEYS)], 1)

    async def one_query(i):
        # A spread of inconsistency budgets, including strict (0).
        epsilon = (0, 1, 2, 5, 10)[i % 5]
        client = clients[(i + 1) % len(clients)]
        outcome = await client.query(
            [KEYS[i % len(KEYS)]], EpsilonSpec(import_limit=epsilon)
        )
        if outcome["inconsistency"] > epsilon:
            violations.append((epsilon, outcome["inconsistency"]))

    jobs = [one_update(i) for i in range(N_UPDATES)]
    jobs += [one_query(i) for i in range(40)]
    rng.shuffle(jobs)
    await asyncio.gather(*jobs)
    assert violations == [], (
        "queries exceeded their epsilon budget: %r" % violations
    )

    await cluster.settle(timeout=60)
    assert await cluster.converged(), "replicas diverged at quiescence"
    values = await cluster.site_values()
    for name, state in values.items():
        total = sum(state.get(key, 0) for key in KEYS)
        assert total == N_UPDATES, (
            "%s lost updates: %r sums to %d" % (name, state, total)
        )


class TestConvergenceUnderLoad:
    @pytest.mark.parametrize("method", ["commu", "ordup"])
    def test_concurrent_updates_and_bounded_queries(self, method, tmp_path):
        async def scenario():
            cluster = LiveCluster(
                n_sites=3, method=method, data_dir=tmp_path
            )
            await cluster.start()
            try:
                await _drive_workload(cluster, method)
            finally:
                await cluster.stop()

        run(scenario())

    def test_rowa_sync_baseline_converges(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(n_sites=3, method="rowa", data_dir=tmp_path)
            await cluster.start()
            try:
                clients = [
                    await cluster.client(name) for name in cluster.names
                ]
                await asyncio.gather(
                    *(
                        clients[i % 3].increment("x", 1)
                        for i in range(30)
                    )
                )
                # Synchronous commit: already converged, no settling needed
                # beyond the committed writes themselves.
                await cluster.settle(timeout=30)
                values = await cluster.site_values()
                assert all(v.get("x") == 30 for v in values.values())
            finally:
                await cluster.stop()

        run(scenario())


class TestCrashRecovery:
    def test_restarted_replica_recovers_acknowledged_updates(self, tmp_path):
        """Kill a replica mid-run; durable queues must preserve every
        acknowledged update through the restart."""

        async def scenario():
            cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp_path)
            await cluster.start()
            try:
                c2 = await cluster.client("site2")
                # Phase 1: updates acknowledged *by the doomed replica*.
                await asyncio.gather(
                    *(c2.increment("x", 1) for _ in range(20))
                )
                await cluster.settle(timeout=30)
                await cluster.kill("site2")

                # Phase 2: the survivors keep accepting updates; their
                # outbox channels to site2 accumulate a durable backlog.
                c0 = await cluster.client("site0")
                c1 = await cluster.client("site1")
                await asyncio.gather(
                    *(c0.increment("x", 1) for _ in range(15)),
                    *(c1.increment("y", 1) for _ in range(15)),
                )

                # Phase 3: restart from the on-disk logs; peers re-deliver.
                await cluster.restart("site2")
                await cluster.settle(timeout=60)
                assert await cluster.converged()
                values = await cluster.site_values()
                assert values["site2"]["x"] == 35  # 20 pre-crash + 15 missed
                assert values["site2"]["y"] == 15
            finally:
                await cluster.stop()

        run(scenario())

    def test_mid_flight_crash_loses_no_acknowledged_update(self, tmp_path):
        """Crash while propagation is still in flight: anything a client
        saw acknowledged must survive."""

        async def scenario():
            cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp_path)
            await cluster.start()
            try:
                c2 = await cluster.client("site2")
                acked = 0
                for _ in range(25):
                    await c2.increment("k", 1)
                    acked += 1
                # Crash immediately — no settle; remote propagation of the
                # tail may not have happened yet.
                await cluster.kill("site2")
                await cluster.restart("site2")
                await cluster.settle(timeout=60)
                assert await cluster.converged()
                values = await cluster.site_values()
                assert values["site0"]["k"] == acked
                assert values["site2"]["k"] == acked
            finally:
                await cluster.stop()

        run(scenario())


    def test_sender_killed_mid_drain_resends_never_loses(
        self, tmp_path, monkeypatch
    ):
        """Kill the *sender* halfway through draining a backlog and
        lose its newest ack markers with it (they are flushed, never
        fsynced): the restarted log sees each peer's cursor further
        back — by a different amount per peer — re-sends each peer
        exactly its own unacked suffix, a bounded stretch of which the
        receiver already holds, and the receivers' dedup keeps every
        increment applied exactly once."""

        n_updates = 400
        batch = 8
        monkeypatch.setattr(channel, "FRAME_MSETS", batch)
        monkeypatch.setattr(channel, "FRAMES_IN_FLIGHT", 1)

        async def scenario():
            plan = FaultPlan(0)
            cluster = LiveCluster(
                n_sites=3,
                method="commu",
                data_dir=tmp_path,
                faults=plan,
                server_options={"retry_base": 0.005, "retry_max": 0.02},
            )
            await cluster.start()
            try:
                c0 = await cluster.client("site0")
                cluster.partition([["site0"], ["site1", "site2"]])
                for i in range(n_updates):
                    await c0.increment(KEYS[i % len(KEYS)], 1)
                peers = ("site1", "site2")
                log = cluster.servers["site0"].log
                assert all(log.frontier(p) == 0 for p in peers)
                # site1 gets a head start, so the two cursors stand at
                # different positions when the sender dies.
                for a, b in (("site0", "site1"), ("site1", "site0")):
                    plan.heal(a, b)
                while log.frontier("site1") < 5 * batch:
                    await asyncio.sleep(0)
                cluster.heal()
                while log.frontier("site2") < 2 * batch:
                    await asyncio.sleep(0)
                await cluster.kill("site0")
                acked = {peer: log.frontier(peer) for peer in peers}
                assert 0 < acked["site2"] < acked["site1"] <= n_updates

                # One log, no per-peer sender file.  The crash also
                # eats its tail, and with it each peer's newest markers.
                site_dir = tmp_path / "site0"
                assert sorted(
                    str(p.relative_to(site_dir)) for p in site_dir.rglob("*.log")
                ) == [
                    "control.log", "inbox/site1.log", "inbox/site2.log",
                    "replication.log",
                ]
                path = site_dir / "replication.log"
                lines = path.read_text().splitlines(keepends=True)
                marks = [i for i, l in enumerate(lines) if '"ack"' in l]
                kept = lines[: marks[-4]]
                path.write_text("".join(kept))
                survived = {}
                for line in kept:
                    record = json.loads(line)
                    if record.get("meta") == "ack":
                        survived[record["peer"]] = record["seq"]
                assert all(survived[p] <= acked[p] for p in peers)
                assert survived != acked

                await cluster.restart("site0")
                stale = cluster.servers["site0"].log
                for peer in peers:
                    assert stale.frontier(peer) == survived[peer]
                    assert [seq for seq, _ in stale.pending(peer)] == list(
                        range(survived[peer] + 1, n_updates + 1)
                    )
                await cluster.settle(timeout=60)
                assert await cluster.converged()
                values = await cluster.site_values()
                for name in cluster.names:
                    total = sum(values[name].get(k, 0) for k in KEYS)
                    assert total == n_updates, (name, values[name])
                assert stale.drained()
            finally:
                await cluster.stop()

        run(scenario())


class TestTornTailRecovery:
    def test_kill_mid_append_loses_no_acked_update(self, tmp_path):
        """Crash while appending to the durable logs: the torn tail
        record (never acknowledged) is skipped on recovery, and every
        update that *was* acknowledged survives."""

        async def scenario():
            cluster = LiveCluster(n_sites=3, method="commu", data_dir=tmp_path)
            await cluster.start()
            try:
                c2 = await cluster.client("site2")
                for _ in range(10):
                    await c2.increment("k", 1)  # all 10 acked
                await cluster.kill("site2")

                # Simulate the kill landing mid-append: torn partial
                # record at the tail of the replication log.
                site_dir = tmp_path / "site2"
                with (site_dir / "replication.log").open(
                    "a", encoding="utf-8"
                ) as handle:
                    handle.write('{"seq": 11, "payload": {"ms')

                await cluster.restart("site2")
                await cluster.settle(timeout=60)
                assert await cluster.converged()
                values = await cluster.site_values()
                for name in cluster.names:
                    assert values[name]["k"] == 10, (
                        "%s lost acked updates: %r" % (name, values[name])
                    )
            finally:
                await cluster.stop()

        run(scenario())


class TestOrdupSemantics:
    def test_read_modify_write_reads_at_serial_position(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(n_sites=3, method="ordup", data_dir=tmp_path)
            await cluster.start()
            try:
                client = await cluster.client("site0")
                await client.write("bal", 100)
                result = await client.update(
                    [ReadOp("bal"), IncrementOp("bal", 50)]
                )
                # The read evaluates at the ET's position in the global
                # order: before its own write.
                assert result["values"]["bal"] == 100
                strict = await client.read("bal", Consistency.STRICT)
                assert strict == 150
            finally:
                await cluster.stop()

        run(scenario())

    def test_strict_read_is_serializable(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(n_sites=3, method="ordup", data_dir=tmp_path)
            await cluster.start()
            try:
                clients = [
                    await cluster.client(name) for name in cluster.names
                ]
                await asyncio.gather(
                    *(
                        clients[i % 3].increment("a", 1)
                        for i in range(30)
                    )
                )
                # A multi-key strict query sees an order-prefix snapshot:
                # invariant a == b can never appear broken.
                await clients[0].write("b", 0)
                await cluster.settle(timeout=30)
                got = await clients[1].read_many(["a", "b"], Consistency.STRICT)
                assert got["a"] == 30
                assert got["b"] == 0
            finally:
                await cluster.stop()

        run(scenario())


class TestUpdateValidation:
    def test_update_without_writes_rejected(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(n_sites=1, method="commu", data_dir=tmp_path)
            await cluster.start()
            try:
                client = await cluster.client("site0")
                with pytest.raises(LiveETFailed):
                    await client.update([ReadOp("x")])
            finally:
                await cluster.stop()

        run(scenario())
