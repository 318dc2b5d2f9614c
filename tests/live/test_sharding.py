"""Sharding subsystem tests: hash routing, the epoch-versioned shard
map, cross-group query merging, WRONG_SHARD refusals, and live
epoch-fenced shard migration (clean and with a crash mid-transfer).

The routing function is a wire contract — clients hash keys in other
processes — so its values are pinned both as golden constants and by
re-deriving them in a subprocess.
"""

import asyncio
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.consistency import Consistency, ReadOptions
from repro.core.operations import IncrementOp, WriteOp
from repro.live import (
    LiveClient,
    LiveETFailed,
    ShardMap,
    ShardedCluster,
    key_shard,
)
from repro.live import cluster as cluster_module
from repro.live.chaos import MigrateConfig, run_scenario
from repro.live.shard import group_keys_by_shard


def run(coro):
    return asyncio.run(coro)


SRC_DIR = pathlib.Path(repro.__file__).parents[1]


class TestKeyShard:
    def test_golden_values(self):
        # crc32 is stable across platforms and Python versions; these
        # constants are the published routing contract.
        assert key_shard("acct0", 3) == 1
        assert key_shard("note", 3) == 0
        assert key_shard("k000", 3) == 2
        assert key_shard("acct0", 4) == 2
        assert key_shard("k001", 4) == 3

    def test_every_key_lands_in_range(self):
        for n in (1, 2, 3, 5, 8):
            for i in range(200):
                assert 0 <= key_shard("key%d" % i, n) < n

    def test_stable_across_processes(self):
        # The hash must not depend on PYTHONHASHSEED or any other
        # per-process state: a fresh interpreter derives the same
        # shard for the same key.
        keys = ["acct0", "note", "k000", "k001"]
        script = (
            "from repro.live.shard import key_shard\n"
            "print(','.join(str(key_shard(k, 4)) for k in %r))" % keys
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        env["PYTHONHASHSEED"] = "99"
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert out == ",".join(str(key_shard(k, 4)) for k in keys)

    def test_group_keys_by_shard_partitions(self):
        keys = ["key%d" % i for i in range(40)]
        grouped = group_keys_by_shard(keys, 4)
        assert sorted(k for ks in grouped.values() for k in ks) == sorted(keys)
        for shard, shard_keys in grouped.items():
            assert all(key_shard(k, 4) == shard for k in shard_keys)


class TestShardMap:
    MAP = ShardMap(
        3,
        (
            (("127.0.0.1", 7001), ("127.0.0.1", 7002)),
            (("127.0.0.1", 7003), ("127.0.0.1", 7004)),
        ),
    )

    def test_roundtrip(self):
        assert ShardMap.from_dict(self.MAP.to_dict()) == self.MAP

    def test_shard_of_matches_key_shard(self):
        for key in ("acct0", "note", "k000"):
            assert self.MAP.shard_of(key) == key_shard(key, 2)

    def test_with_group_bumps_epoch_and_swaps_one_group(self):
        moved = self.MAP.with_group(1, [("127.0.0.1", 7009)])
        assert moved.epoch == self.MAP.epoch + 1
        assert moved.groups[0] == self.MAP.groups[0]
        assert moved.groups[1] == ((("127.0.0.1", 7009)),)

    def test_from_dict_rejects_garbage(self):
        with pytest.raises((ValueError, TypeError, KeyError)):
            ShardMap.from_dict({"epoch": "x", "shards": None})


class TestShardedRouting:
    def test_read_many_merges_across_three_shards(self, tmp_path):
        async def scenario():
            cluster = ShardedCluster(
                n_shards=3, replicas=2, data_dir=tmp_path
            )
            await cluster.start()
            try:
                router = cluster.router()
                # acct0 / note / k000 hash to shards 1 / 0 / 2: one
                # logical read spans every group.
                await router.increment("acct0", 100)
                await router.write("note", "hello")
                await router.append("k000", "x")
                merged = await router.read_many(["acct0", "note", "k000"])
                result = await router.query(["acct0", "note", "k000"])
                await router.settle()
                strict = await router.read("acct0", Consistency.STRICT)
                stats = await router.stats()
                return merged, result, strict, stats
            finally:
                await cluster.stop()

        merged, result, strict, stats = run(scenario())
        assert merged == {"acct0": 100, "note": "hello", "k000": ["x"]}
        assert strict == 100
        assert result.inconsistency >= 0 and not result.degraded
        # Every shard annotates its stats with its slice of the map.
        assert sorted(
            reply["shard"]["index"] for reply in stats.values()
        ) == [0, 1, 2]

    def test_update_spanning_shards_applies_everywhere(self, tmp_path):
        async def scenario():
            cluster = ShardedCluster(
                n_shards=3, replicas=2, data_dir=tmp_path
            )
            await cluster.start()
            try:
                router = cluster.router()
                reply = await router.update(
                    [IncrementOp("acct0", 5), WriteOp("note", True)]
                )
                await router.settle()
                return reply, await router.values()
            finally:
                await cluster.stop()

        reply, values = run(scenario())
        assert reply["applied"] == 2
        assert sorted(reply["shards"]) == [0, 1]
        assert values["acct0"] == 5 and values["note"] is True

    def test_session_update_spanning_shards(self, tmp_path):
        """One session update split across both groups advances the
        token past each group's tid — one frontier entry per group's
        origin site — and a SESSION read of each key afterwards, from
        any replica, sees the write."""

        async def scenario():
            cluster = ShardedCluster(
                n_shards=2, replicas=2, data_dir=tmp_path
            )
            await cluster.start()
            try:
                router = cluster.router()
                names = ["k%03d" % i for i in range(32)]
                key = {key_shard(name, 2): name for name in names}
                async with router.session() as session:
                    reply = await session.update(
                        [IncrementOp(key[0], 3), IncrementOp(key[1], 4)]
                    )
                    token = dict(session.token.frontiers)
                    anywhere = ReadOptions(
                        consistency=Consistency.SESSION, prefer="any"
                    )
                    seen = {
                        k: await session.read(k, anywhere)
                        for k in (key[0], key[1])
                    }
                await router.close()
                return key, reply, token, seen
            finally:
                await cluster.stop()

        key, reply, token, seen = run(scenario())
        assert sorted(reply["shards"]) == [0, 1]
        tids = [frame["tid"] for frame in reply["shards"].values()]
        assert token == {
            site: int(seq)
            for site, _, seq in (tid.rpartition(":") for tid in tids)
        }
        assert sorted(token) == ["s0r0", "s1r0"]
        assert seen == {key[0]: 3, key[1]: 4}

    def test_wrong_shard_refused_with_map_hint(self, tmp_path):
        async def scenario():
            cluster = ShardedCluster(
                n_shards=3, replicas=2, data_dir=tmp_path
            )
            await cluster.start()
            try:
                group0 = cluster.groups[0]
                host, port = group0.addrs[group0.names[0]]
                client = await LiveClient.connect(
                    host, port, reconnect=False
                )
                try:
                    with pytest.raises(LiveETFailed) as exc_info:
                        # acct0 belongs to shard 1; shard 0 must refuse
                        # rather than silently accept the write.
                        await client.increment("acct0", 1)
                finally:
                    await client.close()
                return exc_info.value
            finally:
                await cluster.stop()

        exc = run(scenario())
        assert exc.wrong_shard
        hint = exc.frame["map"]
        assert hint["epoch"] == 0 and len(hint["shards"]) == 3


class TestMigration:
    def test_clean_migrate_preserves_data_and_bumps_epoch(self, tmp_path):
        async def scenario():
            cluster = ShardedCluster(
                n_shards=2, replicas=2, data_dir=tmp_path
            )
            await cluster.start()
            try:
                router = cluster.router()
                for i in range(12):
                    await router.increment("key%d" % i, 1)
                await router.settle()
                old_group = cluster.groups[1]
                old_addr = old_group.addrs[old_group.names[0]]

                new_map = await cluster.migrate(1)

                # The router still holds the epoch-0 map: its next
                # touch of shard 1 is refused WRONG_SHARD with the new
                # map attached, adopted transparently, and retried.
                assert router.map.epoch == 0
                values = await router.read_many(
                    ["key%d" % i for i in range(12)]
                )
                await router.increment("acct0", 1)  # acct0 -> shard 1
                await router.settle()

                stale = await LiveClient.connect(
                    *old_addr, reconnect=False
                )
                try:
                    with pytest.raises(LiveETFailed) as refusal:
                        await stale.read("acct0")
                finally:
                    await stale.close()

                converged = await cluster.converged()
                return (
                    new_map, router, values, refusal.value, converged,
                    await router.values(),
                )
            finally:
                await cluster.stop()

        new_map, router, values, refusal, converged, final = run(scenario())
        assert new_map.epoch == 1
        assert router.map.epoch == 1 and router.map_refreshes >= 1
        assert all(values["key%d" % i] == 1 for i in range(12))
        assert refusal.wrong_shard
        assert converged
        assert final["acct0"] == 1

    def test_restart_after_migration_boots_current_generation(
        self, tmp_path
    ):
        """The shard manifest must steer a restarted cluster to the
        migrated generation's data — booting the retired generation
        would resurrect pre-migration state and orphan acked writes."""

        async def first_life():
            cluster = ShardedCluster(
                n_shards=2, replicas=2, data_dir=tmp_path
            )
            await cluster.start()
            try:
                router = cluster.router()
                for i in range(8):
                    await router.increment("acct%d" % i, 1)
                await router.settle()
                await cluster.migrate(1)
                # Post-migration acked writes live only in the new
                # generation's logs.
                await router.increment("acct4", 10)  # acct4 -> shard 1
                await router.settle()
                return cluster.epoch
            finally:
                await cluster.stop()

        async def second_life():
            cluster = ShardedCluster(
                n_shards=2, replicas=2, data_dir=tmp_path
            )
            await cluster.start()
            try:
                router = cluster.router()
                values = await router.read_many(
                    ["acct%d" % i for i in range(8)]
                )
                return cluster.epoch, values
            finally:
                await cluster.stop()

        epoch_before = run(first_life())
        epoch_after, values = run(second_life())
        assert values["acct4"] == 11
        assert sum(values.values()) == 18
        # Fresh ports under a fresh boot: the published epoch moves
        # past anything a pre-restart router could be holding.
        assert epoch_after > epoch_before

    def test_manifest_is_written_atomically(self, tmp_path, monkeypatch):
        """``shards.json`` goes through the fsync + rename + directory
        fsync discipline, at boot and at every migration."""
        written = []
        write_atomic = cluster_module.write_atomic

        def recording(path, data):
            written.append(path)
            write_atomic(path, data)

        monkeypatch.setattr(cluster_module, "write_atomic", recording)
        manifest = tmp_path / "shards.json"

        async def scenario():
            cluster = ShardedCluster(
                n_shards=2, replicas=2, data_dir=tmp_path
            )
            await cluster.start()
            try:
                assert written.count(manifest) == 1
                await cluster.migrate(1)
                assert written.count(manifest) == 2
            finally:
                await cluster.stop()

        run(scenario())
        assert not (tmp_path / "shards.json.tmp").exists()

    def test_mismatched_shard_count_is_refused(self, tmp_path):
        async def scenario():
            cluster = ShardedCluster(
                n_shards=2, replicas=2, data_dir=tmp_path
            )
            await cluster.start()
            await cluster.stop()

        run(scenario())
        with pytest.raises(ValueError, match="2 shards"):
            ShardedCluster(n_shards=3, replicas=2, data_dir=tmp_path)

    def test_crash_during_migration_loses_nothing(self, tmp_path):
        config = MigrateConfig(
            seed=13,
            n_shards=2,
            replicas=2,
            n_updates_before=16,
            n_updates_during=12,
            n_updates_after=12,
            crash_during=True,
        )
        report = run(run_scenario(config, data_dir=tmp_path))
        assert report.violations() == [], report.render()
        assert report.epoch_after > report.epoch_before
        # The replacement group really rebuilt itself through the
        # snapshot-transfer machinery (one install per replica).
        assert report.new_group_installs >= config.replicas
        assert report.router_map_refreshes >= 1
