"""The commit path — ``ReplicaServer._commit_local`` — crashed at
every boundary.

An accepted update is serialised, appended and synced once, to the
replica's one replication log, then applied at its origin and handed
to the channel senders.  The test kills the origin at each step of
that sequence, with both peers partitioned away so nothing can have
been sent, and restarts it:

* every update a client was told about reaches both peers exactly
  once (and the doomed one too, exactly once, if its record had
  reached the log — it was never acknowledged, so either is right);
* the restarted origin charges exactly the still-unacknowledged
  updates to its queries — the one a snapshot already contains
  (``hold_counters``) and the ones replay re-applies alike — each with
  its own drift, and releases them all once the peers have them.
"""

import asyncio

import pytest

from repro.core.transactions import EpsilonSpec
from repro.live import FaultPlan, LiveCluster, LiveETFailed
from repro.live.engine import QueryTimeout


class _Crash(Exception):
    """Stands in for the process dying at a chosen instant."""


def _die(*args, **kwargs):
    raise _Crash


#: boundary -> (what dies, is the doomed update's record in the log?)
BOUNDARIES = {
    "before-append": (lambda server: (server.log, "append"), False),
    "after-append-before-sync": (lambda server: (server.log, "sync"), True),
    "after-sync-before-accept": (lambda server: (server.engine, "accept"), True),
    "after-accept-before-send": (lambda server: (server, "_kick_channels"), True),
}
AMOUNT = 5


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_commit_crash_loses_nothing_acked_and_charges_what_is_owed(
    boundary, tmp_path, monkeypatch
):
    target, logged = BOUNDARIES[boundary]

    async def scenario():
        plan = FaultPlan(0)
        cluster = LiveCluster(
            n_sites=3, method="commu", data_dir=tmp_path, faults=plan,
            server_options={"retry_base": 0.005, "retry_max": 0.02},
        )
        await cluster.start()
        try:
            client = await cluster.client("site0")
            for _ in range(3):
                await client.increment("k", AMOUNT)
            await cluster.settle(timeout=30)  # held by everyone
            cluster.partition([["site0"], ["site1", "site2"]])
            await client.increment("k", AMOUNT)  # site0:4, owed to both
            await cluster.snapshot("site0")  # ... and inside the image
            await client.increment("k", AMOUNT)  # site0:5, above it
            acked = 5

            origin = cluster.servers["site0"]
            owner, attr = target(origin)
            monkeypatch.setattr(owner, attr, _die)
            with pytest.raises(LiveETFailed):
                await client.increment("k", AMOUNT)  # site0:6 dies
            monkeypatch.undo()
            await cluster.kill("site0")
            await cluster.restart("site0")

            # Still partitioned: exactly the unacknowledged updates are
            # charged, each with its own drift.
            origin = cluster.servers["site0"]
            owed = ["site0:4", "site0:5"] + ["site0:6"] * logged
            engine = origin.engine
            assert engine.state.holders_of("k") == set(owed)
            assert origin.log.released_hi == 3
            assert [s for s, _ in origin.log.pending("site1")] == list(
                range(4, 4 + len(owed))
            )
            assert origin.log.pending("site1") == origin.log.pending("site2")
            budget = float(AMOUNT * len(owed))
            outcome = await engine.query(
                ["k"], EpsilonSpec(value_limit=budget), timeout=1.0
            )
            assert outcome.values == {"k": AMOUNT * (3 + len(owed))}
            assert outcome.inconsistency == len(owed)
            with pytest.raises(QueryTimeout):
                await engine.query(
                    ["k"], EpsilonSpec(value_limit=budget - 1), timeout=0.3
                )

            cluster.heal()
            await cluster.settle(timeout=30)
            total = AMOUNT * (acked + logged)
            values = await cluster.site_values()
            assert {name: v["k"] for name, v in values.items()} == dict.fromkeys(
                cluster.names, total
            )
            assert engine.state.holders_of("k") == set()
            assert engine._pins == {} and engine._drift == {}
            for name in ("site1", "site2"):
                assert cluster.servers[name].inboxes["site0"].frontier == len(
                    owed
                ) + 3
        finally:
            await cluster.stop()

    asyncio.run(scenario())
