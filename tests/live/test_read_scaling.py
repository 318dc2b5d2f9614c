"""Read scaling surface: epsilon-budget cache, staleness-aware
fan-out, and session guarantees.

Unit layers (no sockets): the cache's import-estimate accounting, the
session token's wire format, and the membership table's frontier-lag
signal.  Integration layers (live 3-replica clusters): cache hits and
own-write invalidation, budget expiry driven by observed frontiers,
replica fan-out spread vs strict primary pinning, read-your-writes
with cross-process token handoff, the typed ``SESSION_STALE`` refusal,
session monotonicity across an ORDUP sequencer failover, and the
client-default timeout threading on every introspection verb.
"""

import asyncio
import random
import time

import pytest

from repro.consistency import Consistency, ReadOptions, SessionToken
from repro.errors import SESSION_STALE
from repro.live import (
    FaultPlan,
    LinkFaults,
    LiveCluster,
    LiveETFailed,
    MembershipTable,
    NodeRecord,
)
from repro.live import client as live_client
from repro.live.client import LiveClient, RequestTimeout
from repro.live.read_cache import EpsilonReadCache
from repro.obs.registry import Registry

from .wire import listen


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# unit: cache accounting
# ---------------------------------------------------------------------------


class TestEpsilonReadCache:
    def test_estimate_accumulates_observed_frontiers(self):
        cache = EpsilonReadCache(ttl=None)
        cache.store("k", 7, 1.0, {"site0": 10, "site1": 5}, now=0.0)
        # No new evidence: estimate is the fetch-time import alone.
        hit = cache.lookup("k", budget=2.0, known_frontiers={}, now=1.0)
        assert hit is not None and hit.value == 7 and hit.estimate == 1.0
        # Three updates proven past the entry: estimate 1 + 3 > 2.
        miss = cache.lookup(
            "k", budget=2.0, known_frontiers={"site0": 13}, now=1.0
        )
        assert miss is None
        # A looser budget still serves the same entry.
        hit = cache.lookup(
            "k", budget=8.0, known_frontiers={"site0": 13}, now=1.0
        )
        assert hit is not None and hit.estimate == 4.0

    def test_ttl_only_ignores_budget_but_not_clock(self):
        cache = EpsilonReadCache(ttl=5.0)
        cache.store("k", 7, 0.0, {"site0": 1}, now=0.0)
        hit = cache.lookup(
            "k", budget=0.5, known_frontiers={"site0": 100},
            now=1.0, ttl_only=True,
        )
        assert hit is not None  # over budget, inside TTL
        assert cache.lookup(
            "k", budget=0.5, known_frontiers={}, now=6.0, ttl_only=True
        ) is None  # expired

    def test_session_token_requires_dominating_entry(self):
        cache = EpsilonReadCache(ttl=None)
        cache.store("k", 7, 0.0, {"site0": 3}, now=0.0)
        behind = SessionToken({"site0": 5})
        covered = SessionToken({"site0": 2})
        assert cache.lookup(
            "k", budget=10.0, known_frontiers={}, now=0.0, token=behind
        ) is None
        assert cache.lookup(
            "k", budget=10.0, known_frontiers={}, now=0.0, token=covered
        ) is not None

    def test_lru_eviction_and_invalidation(self):
        cache = EpsilonReadCache(max_entries=2, ttl=None)
        for i, key in enumerate(("a", "b", "c")):
            cache.store(key, i, 0.0, {}, now=0.0)
        assert len(cache) == 2 and cache.evictions == 1
        assert cache.lookup("a", 1.0, {}, now=0.0) is None  # evicted
        assert cache.invalidate(["b", "zz"]) == 1
        assert cache.lookup("b", 1.0, {}, now=0.0) is None
        stats = cache.stats()
        assert stats["invalidations"] == 1 and stats["entries"] == 1


class TestCacheSessionMerge:
    def test_a_partial_hit_leaves_the_session_token_alone(self):
        """Regression: a multi-key session read merged each cached
        key's frontiers into the token before knowing every key hit;
        a miss on a later key then went to a replica with a token it
        never observed (spurious ``SESSION_STALE`` retries)."""

        async def main():
            client = LiveClient(
                [("127.0.0.1", 1)], cache=EpsilonReadCache(ttl=None)
            )
            client.cache.store("a", 1, 0.0, {"site1": 5}, now=0.0)
            token = SessionToken({"site1": 2})
            opts = ReadOptions(consistency=Consistency.SESSION, session=token)
            spec = Consistency.SESSION.spec()
            assert client._cache_lookup(["a", "b"], spec, opts) is None
            assert token.frontiers == {"site1": 2}
            client.cache.store("b", 2, 0.0, {"site1": 4}, now=0.0)
            hit = client._cache_lookup(["a", "b"], spec, opts)
            assert hit is not None and hit.values == {"a": 1, "b": 2}
            assert token.frontiers == {"site1": 5}

        run(main())


class TestSessionTokenWire:
    def test_encode_decode_roundtrip(self):
        token = SessionToken({"site1": 4, "site0": 9})
        text = token.encode()
        assert text == '{"v":1,"f":{"site0":9,"site1":4}}'
        assert SessionToken.decode(text) == token

    def test_malformed_tokens_are_value_errors(self):
        for bad in ("", "not json", '{"v":99,"f":{}}', "[]"):
            with pytest.raises(ValueError):
                SessionToken.decode(bad)

    def test_observe_write_and_dominance(self):
        token = SessionToken()
        assert token.observe_write("siteA:7")
        assert not token.observe_write("siteA:3")  # never regresses
        assert token.dominated_by({"siteA": 7})
        assert not token.dominated_by({"siteA": 6})


class TestFrontierLag:
    def test_lag_sums_positive_gaps_excluding_self(self):
        table = MembershipTable("site0")
        table.update_self(frontier=10)
        table.merge(
            [
                NodeRecord("site1", "h", 1, incarnation=1, frontier=8).wire(),
                NodeRecord("site2", "h", 1, incarnation=1, frontier=3).wire(),
            ]
        )
        # Local receive frontiers: caught up with site1, 2 behind site2.
        lag = table.frontier_lag({"site0": 10, "site1": 8, "site2": 1})
        assert lag == 2

    def test_applied_survives_wire_and_merge(self):
        rec = NodeRecord("s", "h", 1, incarnation=1, applied=42)
        assert NodeRecord.from_wire(rec.wire()).applied == 42
        table = MembershipTable("me")
        table.merge([rec.wire()])
        # Same incarnation, higher applied: adopted.
        table.merge([NodeRecord("s", "h", 1, incarnation=1, applied=50).wire()])
        assert table.get("s").applied == 50
        # Same incarnation, lower applied: never rolls back.
        table.merge([NodeRecord("s", "h", 1, incarnation=1, applied=7).wire()])
        assert table.get("s").applied == 50


# ---------------------------------------------------------------------------
# integration: live clusters
# ---------------------------------------------------------------------------


class TestReadCacheLive:
    def test_hits_budget_expiry_and_own_write_invalidation(self, tmp_path):
        async def main():
            cluster = LiveCluster(n_sites=3, data_dir=tmp_path)
            await cluster.start()
            try:
                reader = LiveClient(
                    list(cluster.addrs.values()),
                    request_timeout=10.0,
                    cache=EpsilonReadCache(ttl=60.0),
                )
                await reader._ensure_connected()
                writer = await cluster.client(cluster.names[0])
                await writer.increment("acct", 5)

                bounded = ReadOptions(consistency=Consistency.BOUNDED(2))
                first = await reader.query(["acct"], bounded)
                assert not first.from_cache and first.values["acct"] == 5
                second = await reader.query(["acct"], bounded)
                assert second.from_cache and second.values["acct"] == 5
                assert second.staleness <= 2  # the served estimate

                # Another client commits 3 updates; once this reader
                # *observes* frontiers past its entry (via any fresh
                # response), the entry is over its 2-update budget.
                for _ in range(3):
                    await writer.increment("acct")
                await cluster.settle(timeout=30)
                await reader.query(["other"], ReadOptions())  # evidence
                third = await reader.query(["acct"], bounded)
                assert not third.from_cache
                assert third.values["acct"] == 8

                # CACHED level: TTL is the only freshness test, so the
                # same staleness evidence does not block serving.
                for _ in range(3):
                    await writer.increment("acct")
                await cluster.settle(timeout=30)
                await reader.query(["other"], ReadOptions())
                cached = await reader.query(
                    ["acct"], ReadOptions(consistency=Consistency.CACHED)
                )
                assert cached.from_cache and cached.values["acct"] == 8

                # Own write invalidates: the next read must re-fetch.
                await reader.increment("acct")
                fourth = await reader.query(["acct"], bounded)
                assert not fourth.from_cache
                assert fourth.values["acct"] == 12
                assert reader.cache.invalidations >= 1
                await reader.close()
            finally:
                await cluster.stop()

        run(main())


class TestFanOut:
    def test_draw_is_planned_once_per_membership_refresh(self):
        """The fan-out draw is a function of the learned replica set
        alone: built on first use after a refresh, and the same draw
        ``rng.choices(addrs, weights=...)`` made per read before."""

        def record(name, port, applied, status="alive"):
            return {
                "name": name, "host": "10.0.0.1", "port": port,
                "applied": applied, "status": status,
            }

        client = LiveClient(
            [("10.0.0.1", 7000)], fan_out=True, rng=random.Random(5)
        )
        client._learn_membership(
            [
                record("site0", 7000, 100),
                record("site1", 7001, 90),
                record("site2", 7002, 100, status="suspect"),
            ]
        )
        assert client._fan_out_draw is None  # planned lazily
        addrs, cum_weights = client._plan_fan_out()
        assert addrs == [("10.0.0.1", 7000), ("10.0.0.1", 7001)]
        weights = [1.0, 1.0 / (1.0 + 10.0 * (10 / 100))]
        assert cum_weights == [weights[0], weights[0] + weights[1]]
        reference = random.Random(5)
        assert [
            client._rng.choices(addrs, cum_weights=cum_weights, k=1)[0]
            for _ in range(64)
        ] == [
            reference.choices(addrs, weights=weights, k=1)[0]
            for _ in range(64)
        ]
        # A refresh drops the plan; the next one sees the new set.
        client._fan_out_draw = (addrs, cum_weights)
        client._learn_membership([record("site2", 7002, 100)])
        assert client._fan_out_draw is None
        assert len(client._plan_fan_out()[0]) == 3

    def test_bounded_reads_spread_strict_reads_pin(self, tmp_path):
        async def main():
            cluster = LiveCluster(n_sites=3, data_dir=tmp_path)
            await cluster.start()
            try:
                registry = Registry()
                client = LiveClient(
                    list(cluster.addrs.values()),
                    request_timeout=10.0,
                    fan_out=True,
                    registry=registry,
                )
                await client._ensure_connected()
                await client.increment("acct", 1)
                await cluster.settle(timeout=30)
                await client.stats()  # learn the replica set

                bounded = ReadOptions(consistency=Consistency.BOUNDED(5))
                served = set()
                for _ in range(40):
                    result = await client.query(["acct"], bounded)
                    assert result.values["acct"] == 1
                    assert result.served_by is not None
                    served.add(result.served_by)
                assert len(served) >= 2, (
                    "fan-out never left the primary: %r" % served
                )

                strict_served = set()
                for _ in range(10):
                    result = await client.query(
                        ["acct"],
                        ReadOptions(consistency=Consistency.STRICT),
                    )
                    strict_served.add(result.served_by)
                assert strict_served == {cluster.names[0]}
                total = sum(
                    registry.get_sample(
                        "reads_by_replica_total", replica=name
                    )
                    or 0
                    for name in cluster.names
                )
                assert total >= 50
                await client.close()
            finally:
                await cluster.stop()

        run(main())

    def test_prefer_targets_a_specific_replica(self, tmp_path):
        async def main():
            cluster = LiveCluster(n_sites=3, data_dir=tmp_path)
            await cluster.start()
            try:
                client = LiveClient(
                    list(cluster.addrs.values()), request_timeout=10.0
                )
                await client._ensure_connected()
                await client.increment("acct", 3)
                await cluster.settle(timeout=30)
                await client.stats()
                target = cluster.names[2]
                result = await client.query(
                    ["acct"],
                    ReadOptions(
                        consistency=Consistency.BOUNDED(5), prefer=target
                    ),
                )
                assert result.served_by == target
                assert result.values["acct"] == 3
                await client.close()
            finally:
                await cluster.stop()

        run(main())


class TestSessionGuarantees:
    def test_read_your_writes_with_token_handoff(self, tmp_path):
        """A second client resumes the session from the encoded token
        and must see the first client's committed writes."""

        async def main():
            cluster = LiveCluster(n_sites=3, data_dir=tmp_path)
            await cluster.start()
            try:
                first = LiveClient(
                    list(cluster.addrs.values()), request_timeout=10.0
                )
                await first._ensure_connected()
                async with first.session() as session:
                    await session.increment("acct", 2)
                    await session.increment("acct", 3)
                    assert await session.read("acct") == 5
                    handoff = session.token.encode()
                await first.close()

                # Cross-process handoff: a fresh client, fanned out, no
                # shared state beyond the serialized token.
                second = LiveClient(
                    list(cluster.addrs.values()),
                    request_timeout=10.0,
                    fan_out=True,
                )
                await second._ensure_connected()
                await second.stats()
                resumed = second.session(SessionToken.decode(handoff))
                value = await resumed.read(
                    "acct", ReadOptions(consistency=Consistency.SESSION)
                )
                assert value == 5
                await second.close()
            finally:
                await cluster.stop()

        run(main())

    def test_session_stale_surfaces_typed_after_retries(
        self, tmp_path, monkeypatch
    ):
        """A token no replica can satisfy is refused with the typed
        code (carrying the refusing replica's frontiers) once the
        client's retry deadline passes."""
        monkeypatch.setattr(live_client, "SESSION_RETRY_WAIT", 0.4)

        async def main():
            cluster = LiveCluster(n_sites=3, data_dir=tmp_path)
            await cluster.start()
            try:
                client = LiveClient(
                    list(cluster.addrs.values()),
                    request_timeout=10.0,
                )
                await client._ensure_connected()
                impossible = SessionToken({cluster.names[0]: 10 ** 9})
                with pytest.raises(LiveETFailed) as info:
                    await client.query(
                        ["acct"],
                        ReadOptions(
                            consistency=Consistency.SESSION,
                            session=impossible,
                        ),
                    )
                assert info.value.code == SESSION_STALE
                assert info.value.session_stale
                assert isinstance(
                    info.value.frame.get("frontiers"), dict
                )
                assert client.session_stale_retries >= 1
                await client.close()
            finally:
                await cluster.stop()

        run(main())

    def test_pinned_client_blocks_until_catchup(self, tmp_path):
        """A client pinned to one lagging replica retries there until
        propagation satisfies the token (no failover involved)."""

        async def main():
            faults = FaultPlan(seed=3)
            slow = LinkFaults(delay_min=0.2, delay_max=0.4)
            faults.set_link("site0", "site1", slow)
            faults.set_link("site0", "site2", slow)
            cluster = LiveCluster(
                n_sites=3, data_dir=tmp_path, faults=faults
            )
            await cluster.start()
            try:
                writer = await cluster.client(cluster.names[0])
                frame = await writer.increment("acct", 9)
                token = SessionToken()
                token.observe_write(frame["tid"])

                # Connected ONLY to a secondary the update reaches
                # after the injected link delay.
                secondary = LiveClient(
                    [cluster.addrs[cluster.names[1]]],
                    request_timeout=10.0,
                )
                await secondary._ensure_connected()
                t0 = time.monotonic()
                result = await secondary.query(
                    ["acct"],
                    ReadOptions(
                        consistency=Consistency.SESSION, session=token
                    ),
                )
                assert result.values["acct"] == 9
                # The read genuinely waited out propagation (and the
                # reply's frontiers dominate the token).
                assert token.dominated_by(result.frontiers)
                assert time.monotonic() - t0 < 10.0
                await secondary.close()
            finally:
                await cluster.stop()

        run(main())

    def test_session_monotonic_across_sequencer_failover(self, tmp_path):
        """Kill the ORDUP sequencer mid-session: SESSION reads keep
        read-your-writes and monotonic reads through the failover —
        no read ever observes less than the session's own committed
        writes, and values never regress along the session."""

        async def main():
            cluster = LiveCluster(
                n_sites=3,
                method="ordup",
                data_dir=tmp_path,
                heartbeat_interval=0.05,
                suspect_after=0.2,
            )
            await cluster.start()
            acked = 0
            try:
                client = LiveClient(
                    list(cluster.addrs.values()),
                    request_timeout=5.0,
                    fan_out=True,
                )
                await client._ensure_connected()
                await client.stats()
                session = client.session()
                for _ in range(5):
                    await session.increment("acct")
                    acked += 1
                await cluster.settle(timeout=30)

                leader = cluster.servers[cluster.names[0]].current_leader()
                await cluster.kill(leader)

                floor = 0
                deadline = time.monotonic() + 20.0
                reads = 0
                while time.monotonic() < deadline and reads < 8:
                    try:
                        value = await session.read(
                            "acct",
                            ReadOptions(
                                consistency=Consistency.SESSION
                            ),
                        )
                    except (
                        LiveETFailed,
                        ConnectionError,
                        OSError,
                        RequestTimeout,
                    ):
                        await asyncio.sleep(0.2)
                        continue
                    reads += 1
                    # Read-your-writes: every committed increment
                    # visible.  Monotonic: never below a prior read.
                    assert value >= acked, (
                        "session read lost own writes: %r < %r"
                        % (value, acked)
                    )
                    assert value >= floor
                    floor = value
                assert reads > 0, "no session read succeeded post-kill"
                await client.close()
            finally:
                await cluster.stop()

        run(main())


class TestTimeoutThreading:
    def test_every_introspection_verb_takes_a_timeout(self, tmp_path):
        """A wedged server (accepts, never replies) must bound every
        verb by the per-call or client-default timeout."""

        async def main():
            wedged = []

            async def wedge(raw):
                wedged.append(raw)  # accept, say nothing

            server = await listen(wedge)
            addr = server.sockets[0].getsockname()[:2]
            try:
                client = LiveClient([addr], request_timeout=None)
                await client._ensure_connected()
                for verb in ("values", "stats", "metrics", "ping"):
                    t0 = time.monotonic()
                    with pytest.raises(RequestTimeout):
                        await getattr(client, verb)(timeout=0.2)
                    assert time.monotonic() - t0 < 2.0
                with pytest.raises(RequestTimeout):
                    await client.refresh_membership(timeout=0.2)
                await client.close()
            finally:
                for raw in wedged:
                    await raw.close()
                server.close()
                await server.wait_closed()

        run(main())

    def test_client_default_timeout_covers_all_verbs(self, tmp_path):
        async def main():
            wedged = []

            async def wedge(raw):
                wedged.append(raw)  # accept, say nothing

            server = await listen(wedge)
            addr = server.sockets[0].getsockname()[:2]
            try:
                client = LiveClient([addr], request_timeout=0.2)
                await client._ensure_connected()
                with pytest.raises(RequestTimeout):
                    await client.values()  # no per-call timeout passed
                await client.close()
            finally:
                for raw in wedged:
                    await raw.close()
                server.close()
                await server.wait_closed()

        run(main())


class TestDeprecatedKwargs:
    def test_mixing_typed_and_legacy_is_an_error(self):
        """The ``epsilon=`` keywords and the bare-number spelling are
        gone: alone or beside a typed level, each is a ``TypeError``."""

        async def main():
            client = LiveClient([("127.0.0.1", 1)])
            with pytest.raises(TypeError):
                await client.read(
                    "k", Consistency.BOUNDED(2), epsilon=3
                )
            with pytest.raises(TypeError):
                await client.read_many(["k"], epsilon=3)
            with pytest.raises(TypeError):
                await client.read("k", 5)
            await client.close()

        run(main())
