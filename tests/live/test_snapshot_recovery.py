"""Snapshot checkpoints, catch-up, and rejoin across the live stack.

Bottom-up coverage of the recovery tentpole: the envelope format
(versioned + checksummed, corrupt images read as absent), engine
checkpoint/restore round-trips, the server's snapshot verb with log
compaction, restart-from-snapshot equivalence, anti-entropy rejoin of
a disk-wiped replica (refusing appends and strict reads until its
recovery's survey has decided), what any recovering replica refuses,
backpressure shedding (``OVERLOADED``),
client primary rehoming after failover, and the packaged rejoin chaos
scenario.
"""

import asyncio
import hashlib
import json
import math
import pathlib
import shutil

import pytest

from repro.consistency import Consistency
from repro.core.operations import DecrementOp, IncrementOp
from repro.errors import UNAVAILABLE
from repro.live import (
    FaultPlan,
    LiveCluster,
    LiveETFailed,
    RejoinConfig,
    SnapshotError,
    SnapshotStore,
    open_snapshot,
    run_scenario,
    seal_snapshot,
)
from repro.live import client as live_client
from repro.live import server as live_server
from repro.live import snapshot as snapshot_module
from repro.live.client import LiveClient, request_once
from repro.live.engine import make_engine
from repro.live.protocol import (
    ProtocolError,
    encode_bin_ack_frame,
    encode_bin_batch_frame,
    loads,
)
from repro.live.server import ReplicaServer
from repro.live.snapshot import LOCAL_CHANNEL

from .wire import RawConn, listen


def run(coro):
    return asyncio.run(coro)


#: timings tuned for test speed, not realism.
FAST = dict(heartbeat_interval=0.1, suspect_after=0.4)


def _body(**overrides):
    body = {
        "site": "site0",
        "method": "commu",
        "frontiers": {LOCAL_CHANNEL: 3, "site1": 2},
        "engine": {"values": {"k": 1}},
    }
    body.update(overrides)
    return body


def _with_version(image, version):
    """``image`` with its envelope's version rewritten."""
    return image.replace(b'{"version":4,', b'{"version":%d,' % version, 1)


class TestSnapshotEnvelope:
    def test_seal_open_round_trip(self):
        body = _body()
        image = seal_snapshot(body)
        assert json.loads(image)["version"] == 4
        assert open_snapshot(image) == body

    def test_tampered_body_is_rejected(self):
        image = seal_snapshot(_body())
        tampered = image.replace(b'"site1":2', b'"site1":9')
        assert tampered != image
        with pytest.raises(SnapshotError):
            open_snapshot(tampered)

    def test_alien_version_is_rejected(self):
        # 1 is what trees before the positional operation codec wrote,
        # 2 what trees before the COMPE operation log wrote; 3 checks
        # the canonical encoding of the body, which is not what a
        # version-4 image hashes.
        for alien in (1, 2, 3, 5):
            with pytest.raises(SnapshotError):
                open_snapshot(_with_version(seal_snapshot(_body()), alien))

    def test_missing_fields_are_rejected(self):
        image = seal_snapshot({"site": "site0"})
        with pytest.raises(SnapshotError):
            open_snapshot(image)

    def test_store_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path / "snapshot.json")
        body = _body()
        assert store.load() is None
        assert not store.exists()
        assert store.save(seal_snapshot(body)) > 0
        assert store.exists()
        assert store.load() == body

    def test_corrupt_file_reads_as_absent(self, tmp_path):
        path = tmp_path / "snapshot.json"
        store = SnapshotStore(path)
        store.save(seal_snapshot(_body()))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # torn image
        assert store.load() is None
        path.write_bytes(b"not json at all\n")
        assert store.load() is None


class TestEngineCheckpoint:
    @pytest.mark.parametrize("method", ["commu", "ordup", "rowa"])
    def test_checkpoint_restore_round_trip(self, method):
        async def scenario():
            engine = make_engine(method, "site0")
            image = engine.checkpoint()
            clone = make_engine(method, "site0")
            clone.restore(image)
            # The restore is faithful: checkpointing the clone yields
            # the identical image.
            assert clone.checkpoint() == image

        run(scenario())

    def test_checkpoint_after_load_round_trips(self, tmp_path):
        """A checkpoint taken mid-life (non-empty store, advanced
        frontiers) restores into an equal engine."""

        async def scenario():
            cluster = LiveCluster(
                n_sites=2, method="commu", data_dir=tmp_path, **FAST
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                for i in range(12):
                    await client.increment("k%d" % (i % 3), 1)
                await cluster.settle()
                engine = cluster.servers["site0"].engine
                image = engine.checkpoint()
                clone = make_engine("commu", "site0")
                clone.restore(image)
                assert clone.checkpoint() == image
            finally:
                await cluster.stop()

        run(scenario())


class TestSnapshotVerb:
    def test_snapshot_compacts_the_logs(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(
                n_sites=3, method="commu", data_dir=tmp_path, **FAST
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                for i in range(20):
                    await client.increment("k%d" % (i % 4), 1)
                await cluster.settle()
                summary = await cluster.snapshot("site0")
                assert summary["bytes"] > 0
                assert summary["frontiers"][LOCAL_CHANNEL] == 20
                # Every applied record was below the snapshot
                # frontier, so compaction dropped all of them:
                # 20 local + 2 peer inboxes' worth on this site.
                assert summary["compacted"] > 0
                stats = (await cluster.site_stats())["site0"]
                assert stats["snapshot"]["exists"] is True
                assert stats["log_bases"]["inbox"][LOCAL_CHANNEL] == 20
                # Compaction is observable, and a second snapshot
                # with no new work compacts nothing further.
                again = await cluster.snapshot("site0")
                assert again["compacted"] == 0
            finally:
                await cluster.stop()

        run(scenario())

    def test_a_chunked_pull_verifies_the_image_once(
        self, tmp_path, monkeypatch
    ):
        """Every chunk of a pull is a slice of one image: the one this
        replica captured is served as it wrote it, with no read of the
        file — a pull after a capture, or a ``fresh`` pull, reads
        nothing back — and a file it did not write this life is read
        and verified once, for every chunk of the pull."""
        loads = []
        read = SnapshotStore.read

        def counted(store):
            loads.append(store.path)
            return read(store)

        monkeypatch.setattr(SnapshotStore, "read", counted)

        async def pull(addr, fresh=False):
            chunks, offset = [], 0
            while True:
                reply = await request_once(
                    addr, "snapshot-fetch", offset=offset,
                    fresh=fresh and offset == 0,
                )
                chunks.append(reply["data"])
                offset += len(reply["data"])
                if reply["eof"]:
                    return "".join(chunks).encode("ascii"), len(chunks)

        async def scenario():
            cluster = LiveCluster(
                n_sites=3, method="commu", data_dir=tmp_path, **FAST
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                for i in range(40):
                    await client.increment("k%d" % i, 1)
                await cluster.settle()
                await cluster.snapshot("site0")
                path = cluster.servers["site0"].recovery.store.path
                image = path.read_bytes()
                monkeypatch.setattr(
                    live_server, "SNAPSHOT_CHUNK", -(-len(image) // 4)
                )
                loads.clear()
                addr = cluster.addrs["site0"]
                assert await pull(addr) == (image, 4)
                assert loads == []

                await client.increment("k0", 1)
                await cluster.settle()
                await cluster.snapshot("site0")
                data, _ = await pull(addr)
                assert data == path.read_bytes() != image
                await client.increment("k1", 1)
                await cluster.settle()
                fresh, _ = await pull(addr, fresh=True)
                assert fresh == path.read_bytes() != data
                assert loads == []

                # A restarted replica serves the file its former life
                # wrote: read and verified once for the whole pull.
                await cluster.kill("site0")
                await cluster.restart("site0")
                loads.clear()
                assert await pull(cluster.addrs["site0"]) == (fresh, 4)
                assert loads == [path]
            finally:
                await cluster.stop()

        run(scenario())

    def test_a_snapshot_encodes_its_image_once(self, tmp_path, monkeypatch):
        """Capture encodes the image once, with the live codec — no
        stdlib encode, no null for an unstamped key — and the checksum
        covers exactly the bytes the file holds as its body."""
        encodes, dumps = [], []
        encode, stdlib_dumps = snapshot_module._encode, json.dumps

        def counted_encode(obj):
            encodes.append(obj)
            return encode(obj)

        def counted_dumps(*args, **kwargs):
            dumps.append(args)
            return stdlib_dumps(*args, **kwargs)

        monkeypatch.setattr(snapshot_module, "_encode", counted_encode)
        monkeypatch.setattr(json, "dumps", counted_dumps)

        async def scenario():
            cluster = LiveCluster(
                n_sites=2, method="commu", data_dir=tmp_path, **FAST
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                for i in range(40):
                    await client.increment("k%d" % (i % 8), 1)
                await cluster.settle()
                server = cluster.servers["site0"]
                encodes.clear()
                dumps.clear()
                summary = await server.take_snapshot()
                assert summary["compacted"] == 40
                assert len(encodes) == 1 and dumps == []
                image = server.recovery.store.path.read_bytes()
                body = image[image.index(b'"body":') + 7:-2]
                assert json.loads(image)["checksum"] == (
                    hashlib.sha256(body).hexdigest()
                )
                assert b"null" not in image
                assert json.loads(body) == encodes[0]
            finally:
                await cluster.stop()

        run(scenario())

    def test_restart_from_snapshot_preserves_state(self, tmp_path):
        async def scenario():
            cluster = LiveCluster(
                n_sites=3, method="commu", data_dir=tmp_path, **FAST
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                for i in range(30):
                    await client.increment("k%d" % (i % 4), 1)
                await cluster.settle()
                await cluster.snapshot_all()
                before = await cluster.site_values()

                # Kill + restart: recovery now starts from the
                # snapshot and replays only the (empty) log tails.
                await cluster.kill("site2")
                await cluster.restart("site2")
                await cluster.settle()
                assert await cluster.converged()
                assert (await cluster.site_values())["site2"] == (
                    before["site2"]
                )
                # And the restarted replica still accepts new work.
                client2 = await cluster.client("site2")
                await client2.increment("k0", 1)
                await cluster.settle()
                assert await cluster.converged()
            finally:
                await cluster.stop()

        run(scenario())

    def test_the_periodic_loop_snapshots_and_compacts(self, tmp_path):
        """``snapshot_interval`` (``repro serve --snapshot-interval``)
        snapshots with no ``snapshot`` request, and compacts both the
        replication log and the control log."""

        async def scenario():
            cluster = LiveCluster(
                n_sites=3, method="commu", data_dir=tmp_path,
                server_options={"snapshot_interval": 0.1}, **FAST
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                for i in range(20):
                    await client.increment("k%d" % (i % 4), 1)
                await cluster.settle()
                site0 = cluster.servers["site0"]
                deadline = asyncio.get_running_loop().time() + 10.0
                while site0.log.base < 20 or (
                    site0._control.compaction_count == 0
                ):
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
                assert site0.registry.get_sample(
                    "snapshots_total", kind="periodic"
                ) >= 1
                assert not site0.registry.get_sample(
                    "snapshots_total", kind="manual"
                )
                assert site0._control.compacted_records > 0
                text = (tmp_path / "site0" / "control.log").read_text()
                records = [json.loads(line) for line in text.splitlines()]
                # A rewritten log: the floor marker, then the members.
                assert records[0] == {"meta": "base", "base": 0}
                assert {r["meta"] for r in records[1:]} == {"member"}
                assert {r["name"] for r in records[1:]} == set(cluster.names)
            finally:
                await cluster.stop()

        run(scenario())


class TestWipedReplicaRejoin:
    def test_wiped_replica_rejoins_via_snapshot_transfer(self, tmp_path):
        """Disk loss + compacted donors: replay is impossible, the
        wiped replica must fetch and install a peer snapshot."""

        async def scenario():
            cluster = LiveCluster(
                n_sites=3, method="commu", data_dir=tmp_path, **FAST
            )
            await cluster.start()
            try:
                clients = {
                    name: await cluster.client(name)
                    for name in cluster.names
                }
                for i in range(24):
                    name = cluster.names[i % 3]
                    await clients[name].increment("k%d" % (i % 4), 1)
                await cluster.settle()
                # Compact everywhere: donor logs can no longer serve
                # the wiped site's history from seq 1.
                await cluster.snapshot_all()
                before = await cluster.site_values()

                await cluster.wipe("site2")
                await cluster.restart("site2")
                await cluster.wait_caught_up("site2")
                await cluster.settle()

                stats = await cluster.site_stats()
                assert stats["site2"]["catchup_installs"] >= 1
                assert stats["site2"]["catching_up"] is False
                assert await cluster.converged()
                # No acked update lost: the pre-wipe state survived
                # the wipe via the snapshot transfer.
                assert (await cluster.site_values())["site2"] == (
                    before["site0"]
                )

                # The rejoined replica is a first-class citizen again:
                # its fresh transaction ids collide with nothing.
                client2 = await cluster.client("site2")
                for _ in range(6):
                    await client2.increment("k0", 1)
                await cluster.settle()
                assert await cluster.converged()
            finally:
                await cluster.stop()

        run(scenario())


#: wiped-replica probe scenarios: fast heartbeats and quick redials.
PROBE = dict(FAST, server_options={"retry_base": 0.01, "retry_max": 0.05})


async def _wiped_cluster(tmp_path, writer, faults=None):
    """A 3-site COMMU cluster whose ``site2`` has just lost its disk,
    after 10 increments of ``k`` at ``writer`` were settled and
    snapshotted everywhere (so only a snapshot install can repair it).
    ``site2`` is not restarted yet."""
    cluster = LiveCluster(
        n_sites=3, method="commu", data_dir=tmp_path, faults=faults, **PROBE
    )
    await cluster.start()
    try:
        client = await cluster.client(writer)
        for _ in range(10):
            await client.increment("k", 1)
        await cluster.settle()
        await cluster.snapshot_all()
        await cluster.wipe("site2")
    except BaseException:
        await cluster.stop()
        raise
    return cluster


async def _increment_or_refused(client):
    """1 when the increment was acknowledged, 0 when it was refused
    with ``UNAVAILABLE``."""
    try:
        await client.increment("k", 1)
    except LiveETFailed as exc:
        assert exc.code == UNAVAILABLE, exc
        return 0
    return 1


async def _every_site_holds(cluster, expected):
    await cluster.wait_caught_up("site2", timeout=15.0)
    await cluster.settle()
    values = await cluster.site_values()
    assert {name: v.get("k") for name, v in values.items()} == {
        name: expected for name in cluster.names
    }


class TestWipedReplicaProbe:
    """A wiped replica refuses appends and strict reads until its
    startup probe has asked every peer about its former life: served
    from the empty store, they would answer 0 or reuse tids the peers
    drop as duplicates."""

    def test_strict_read_straight_after_restart(self, tmp_path):
        async def scenario():
            cluster = await _wiped_cluster(tmp_path, "site0")
            try:
                await cluster.restart("site2")
                client2 = await cluster.client("site2")
                try:
                    value = await client2.read(
                        "k", Consistency.STRICT, timeout=5.0
                    )
                except LiveETFailed as exc:
                    assert exc.code == UNAVAILABLE, exc
                else:
                    assert value == 10
            finally:
                await cluster.stop()

        run(scenario())

    def test_update_straight_after_restart_is_kept(self, tmp_path):
        async def scenario():
            cluster = await _wiped_cluster(tmp_path, "site2")
            try:
                await cluster.restart("site2")
                client2 = await cluster.client("site2")
                acked = await _increment_or_refused(client2)
                await _every_site_holds(cluster, 10 + acked)
            finally:
                await cluster.stop()

        run(scenario())

    def test_updates_while_partitioned_across_restart_are_kept(
        self, tmp_path
    ):
        async def scenario():
            cluster = await _wiped_cluster(tmp_path, "site2", FaultPlan(0))
            try:
                cluster.partition([["site0", "site1"], ["site2"]])
                await cluster.restart("site2")
                client2 = await cluster.client("site2")
                acked = 0
                for _ in range(5):
                    acked += await _increment_or_refused(client2)
                # A long cut: however long its peers stay unreachable,
                # the wiped replica must not conclude it is fresh.
                await asyncio.sleep(2.5)
                cluster.heal()
                await _every_site_holds(cluster, 10 + acked)
            finally:
                await cluster.stop()

        run(scenario())


#: every request a recovering replica refuses, as a call on a client
#: of the replica and the replica's address.
REFUSED_WHILE_RECOVERING = {
    "update": lambda client, addr: client.increment("acct", 1),
    "decide": lambda client, addr: client.decide("abort", saga="s"),
    "strict-query": lambda client, addr: client.read(
        "acct", Consistency.STRICT, timeout=5.0
    ),
    "snapshot": lambda client, addr: client.snapshot(),
    "snapshot-fetch": lambda client, addr: request_once(
        addr, "snapshot-fetch", offset=0, fresh=True
    ),
    "fetch-install": lambda client, addr: request_once(
        addr, "fetch-install", host=addr[0], port=addr[1], site="site0"
    ),
}


@pytest.mark.parametrize("request_kind", sorted(REFUSED_WHILE_RECOVERING))
def test_a_recovering_replica_refuses(request_kind, tmp_path):
    """While a recovery runs — here one that can reach no peer, so it
    keeps retrying — every append, strict read and snapshot verb is
    refused with ``UNAVAILABLE``: the install would erase what it
    acked.  Epsilon-bounded reads keep answering."""

    async def scenario():
        cluster = LiveCluster(
            n_sites=3, method="compe", data_dir=tmp_path,
            faults=FaultPlan(0), **PROBE,
        )
        await cluster.start()
        try:
            client0 = await cluster.client("site0")
            await client0.increment("acct", 100)
            await client0.update([DecrementOp("acct", 5)], saga="s")
            await cluster.settle()
            cluster.partition([["site0", "site1"], ["site2"]])
            addr = cluster.addrs["site2"]
            # A donor tells site2 its channel cannot repair it.
            raw = await RawConn.open(*addr)
            raw.send({"type": "peer-reset", "src": "site0"})
            client2 = await cluster.client("site2")
            while not (await client2.stats())["catching_up"]:
                await asyncio.sleep(0.01)

            with pytest.raises(LiveETFailed) as refused:
                await REFUSED_WHILE_RECOVERING[request_kind](client2, addr)
            assert refused.value.code == UNAVAILABLE, refused.value
            bounded = await client2.query(["acct"], Consistency.BOUNDED(10))
            assert bounded.values == {"acct": 95}
            stats = await client2.stats()
            assert stats["catching_up"] is True
            assert stats["catchup_installs"] == 0
            await raw.close()
        finally:
            await cluster.stop()

    run(scenario())


class TestBackpressure:
    def test_updates_shed_with_overloaded_when_backlog_grows(
        self, tmp_path
    ):
        async def scenario():
            cluster = LiveCluster(
                n_sites=2,
                method="commu",
                data_dir=tmp_path,
                server_options={"backlog_limit": 6},
                **FAST,
            )
            await cluster.start()
            try:
                client = await cluster.client("site0")
                stats = (await cluster.site_stats())["site0"]
                assert stats["backlog_limit"] == 6
                # With the peer down, every accepted update parks in
                # the outbox; past the limit the replica sheds load
                # with a *typed* error instead of growing unboundedly.
                await cluster.kill("site1")
                accepted, outcome = 0, None
                for _ in range(20):
                    try:
                        await client.increment("k0", 1)
                        accepted += 1
                    except LiveETFailed as exc:
                        outcome = exc
                        break
                assert outcome is not None, "backlog never hit the limit"
                assert outcome.overloaded
                assert outcome.code == "OVERLOADED"
                assert accepted <= 6

                # Draining the backlog restores service.
                await cluster.restart("site1")
                await cluster.settle()
                await client.increment("k0", 1)
                await cluster.settle()
                assert await cluster.converged()
            finally:
                await cluster.stop()

        run(scenario())


class TestClientRehoming:
    def test_client_rehomes_to_primary_after_failover(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(live_client, "PRIMARY_RETRY_INTERVAL", 0.1)

        async def scenario():
            names = ["site0", "site1"]
            servers = {}
            for name in names:
                servers[name] = ReplicaServer(
                    name,
                    peers=names,
                    data_dir=tmp_path / name,
                    method="commu",
                    **FAST,
                )
            addrs = {
                name: ("127.0.0.1", await server.bind("127.0.0.1", 0))
                for name, server in servers.items()
            }
            for server in servers.values():
                server.set_peers(addrs)
                server.start_channels()
            client = await LiveClient.connect(
                *addrs["site0"],
                failover=[addrs["site1"]],
            )
            try:
                await client.values()
                assert client._active_index == 0

                # Primary dies: the next idempotent request fails
                # over to the secondary.
                await servers["site0"].stop()
                await client.values()
                assert client._active_index == 1
                assert client.rehomes == 0

                # Primary returns on the *same* address: after the
                # retry interval, an idle moment rehomes the client.
                servers["site0"] = ReplicaServer(
                    "site0",
                    peers=names,
                    data_dir=tmp_path / "site0",
                    method="commu",
                    **FAST,
                )
                await servers["site0"].bind(*addrs["site0"])
                servers["site0"].set_peers(addrs)
                servers["site0"].start_channels()
                deadline = asyncio.get_event_loop().time() + 5.0
                while (
                    client._active_index != 0
                    and asyncio.get_event_loop().time() < deadline
                ):
                    await asyncio.sleep(0.12)
                    await client.values()
                assert client._active_index == 0
                assert client.rehomes == 1
                # The rehomed connection actually works.
                await client.increment("k0", 1)
            finally:
                await client.close()
                for server in servers.values():
                    await server.stop()

        run(scenario())


class TestRejoinScenario:
    @pytest.mark.parametrize("method", ["commu", "ordup"])
    def test_packaged_rejoin_scenario_holds_invariants(
        self, method, tmp_path
    ):
        async def scenario():
            config = RejoinConfig(
                seed=11,
                method=method,
                n_updates_before=18,
                n_updates_during=18,
                n_updates_after=6,
                heartbeat_interval=0.1,
                suspect_after=0.4,
            )
            report = await run_scenario(config)
            assert report.violations() == [], report.render()
            assert report.catchup_installs >= 1
            assert report.converged
            assert report.compacted_records > 0

        run(scenario())

    def test_long_downtime_without_wipe_recovers(self, tmp_path):
        """Keep the disk: recovery may use channel redelivery alone,
        but every invariant still holds."""

        async def scenario():
            config = RejoinConfig(
                seed=12,
                wipe=False,
                n_updates_before=18,
                n_updates_during=18,
                n_updates_after=6,
                heartbeat_interval=0.1,
                suspect_after=0.4,
            )
            report = await run_scenario(config)
            assert report.violations() == [], report.render()
            assert report.converged

        run(scenario())


# ---------------------------------------------------------------------------
# Recovery names the record it cannot read.
# ---------------------------------------------------------------------------

#: log file under site0's data dir -> (site that originates the
#: updates, an operation as the runtime logs it there, the same
#: operation in the object form trees before the positional codec wrote).
UNREADABLE = {
    "replication.log": (
        "site0", '["inc","x",1]', '{"t":"inc","key":"x","amount":1}',
    ),
    "inbox/site1.log": (
        "site1", '["inc","x",1]', '{"t":"inc","key":"x","amount":1}',
    ),
}


@pytest.mark.parametrize("log_name", sorted(UNREADABLE))
def test_recovery_names_the_record_it_cannot_read(log_name, tmp_path):
    """A data dir written before operations were arrays is refused, by
    design — with the file and the record in the error, nothing
    applied, and the log left exactly as it was found."""
    origin, array_form, object_form = UNREADABLE[log_name]

    async def scenario():
        cluster = LiveCluster(
            n_sites=2, method="compe", data_dir=tmp_path, **FAST
        )
        await cluster.start()
        try:
            client = await cluster.client(origin)
            for _ in range(3):
                await client.increment("x", 1)
            await cluster.settle(timeout=30)
        finally:
            await cluster.stop()

        path = tmp_path / "site0" / log_name
        lines = path.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if array_form in line)
        seq = json.loads(lines[first])["seq"]
        lines[first] = lines[first].replace(array_form, object_form)
        json.loads(lines[first])  # still a JSON line, just not ours
        path.write_text("".join(lines))
        before = path.read_bytes()

        server = ReplicaServer(
            "site0", peers=["site0", "site1"],
            data_dir=tmp_path / "site0", method="compe",
        )
        try:
            with pytest.raises(ProtocolError) as refused:
                await server.bind("127.0.0.1", 0)
        finally:
            await server.stop()
        message = str(refused.value)
        assert str(path) in message
        assert "record %d" % seq in message
        assert "operation must be an array" in message
        assert server.engine.applied_count == 0
        assert server.engine.store.as_dict() == {}
        assert path.read_bytes() == before

    run(scenario())


def _v3_image(body):
    """``body`` as a version-3 tree wrote it: the checksum over the
    canonical (sorted, compact) stdlib encoding of the body."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return (json.dumps({
        "version": 3,
        "checksum": hashlib.sha256(canonical.encode()).hexdigest(),
        "body": body,
    }, separators=(",", ":")) + "\n").encode()


def test_a_version_1_snapshot_reads_as_absent(tmp_path):
    """The image of a tree that logged operations as objects: refused
    by the unknown-version path, like any alien envelope."""
    store = SnapshotStore(tmp_path / "snapshot.json")
    store.save(seal_snapshot(_body()))
    assert store.load() == _body()
    store.save(_v3_image(_body()).replace(b'"version":3', b'"version":1'))
    assert store.load() is None and store.read() is None


def test_a_version_2_snapshot_reads_as_absent(tmp_path):
    """The image of a tree whose COMPE checkpoint carried undo steps
    (``compe.undo``) instead of its operation log: refused by the
    unknown-version path."""
    store = SnapshotStore(tmp_path / "snapshot.json")
    store.save(_v3_image(_body()).replace(b'"version":3', b'"version":2'))
    assert store.load() is None and store.read() is None


def test_a_version_3_snapshot_opens_under_its_own_rule(tmp_path):
    """A version-3 image, checksummed over the canonical encoding of
    its body, still opens; tampered, it does not."""
    store = SnapshotStore(tmp_path / "snapshot.json")
    image = _v3_image(_body())
    store.save(image)
    assert store.load() == _body()
    assert store.served_bytes() == image
    store.save(image.replace(b'"site1":2', b'"site1":9'))
    assert store.load() is None


# ---------------------------------------------------------------------------
# An image that does not open, below compacted logs; older images.
# ---------------------------------------------------------------------------


def test_a_compacted_replica_whose_image_does_not_open_refuses_to_boot(
    tmp_path,
):
    """Without its image, a replica whose logs were compacted holds
    only their tails: booting would serve that as its state.  It is
    refused instead — the image and the floors named, nothing applied,
    the image, the log and the control log left as they were found: a
    refused boot raises no incarnation."""

    async def scenario():
        cluster = LiveCluster(
            n_sites=1, method="commu", data_dir=tmp_path, fsync=True, **FAST
        )
        await cluster.start()
        try:
            client = await cluster.client("site0")
            for _ in range(5):
                await client.increment("x", 1)
            summary = await cluster.snapshot("site0")
            assert summary["compacted"] == 5
            await client.increment("x", 1)
        finally:
            await cluster.stop()

        data = tmp_path / "site0"
        image = data / "snapshot.json"
        image.write_bytes(image.read_bytes()[:50])  # torn
        kept = [image, data / "replication.log", data / "control.log"]
        before = [path.read_bytes() for path in kept]
        server = ReplicaServer(
            "site0", peers=["site0"], data_dir=data, method="commu",
            fsync=True,
        )
        try:
            with pytest.raises(SnapshotError) as refused:
                await server.bind("127.0.0.1", 0)
        finally:
            await server.stop()
        message = str(refused.value)
        assert str(image) in message
        assert "'replication': 5" in message
        assert server.engine.applied_count == 0
        assert server.engine.store.as_dict() == {}
        assert [path.read_bytes() for path in kept] == before

    run(scenario())


#: the data dir of ``site0`` of a 2-site COMMU cluster as a version-3
#: tree left it (``tests/live/data/v3``): five increments of ``x`` and
#: two of ``big`` by 1e308 at site0, five of ``café`` by 2 at site1, a
#: snapshot on both sites that compacted every log, then one more
#: increment of ``x`` here and of ``y`` by 3 there, settled.
V3_DATA = pathlib.Path(__file__).parent / "data" / "v3" / "site0"
V3_STORE = {"x": 6, "café": 10, "big": math.inf, "y": 3}


def test_a_version_3_data_dir_boots_into_its_image(tmp_path):
    """A data dir written before images were spliced boots into the same
    store, and its next snapshot is a version-4 image that does too."""
    data = tmp_path / "site0"
    shutil.copytree(V3_DATA, data)
    assert json.loads((data / "snapshot.json").read_text())["version"] == 3

    async def boot():
        server = ReplicaServer(
            "site0", peers=["site0", "site1"], data_dir=data,
            method="commu", fsync=True,
        )
        try:
            await server.bind("127.0.0.1", 0)
            store = server.engine.store.as_dict()
            assert server.engine.applied_count == 14
            assert server.log.assigned == 8
            assert server.inboxes["site1"].frontier == 6
            await server.take_snapshot()
        finally:
            await server.stop()
        return store

    assert run(boot()) == V3_STORE
    assert (data / "snapshot.json").read_bytes().startswith(
        b'{"version":4,'
    )
    assert run(boot()) == V3_STORE


def _data_records(path):
    """``(seq, payload)`` of each data line of a log file."""
    return [
        (record["seq"], record["payload"])
        for record in map(json.loads, path.read_text().splitlines())
        if "meta" not in record
    ]


def test_a_version_3_data_dir_replays_and_relays_both_payload_forms(
    tmp_path, monkeypatch
):
    """The fixture's logs hold plain updates as MSet objects, the form
    written before a plain update's payload was its operations; new
    plain updates, the replica's own and a peer's, are logged as
    arrays after them.  A restart replays both forms into the store the
    same updates make, and a rewound peer is re-sent both, the object
    line byte for byte; every entry read back has the tid its origin
    and seq give."""
    data = tmp_path / "site0"
    shutil.copytree(V3_DATA, data)
    replayed = []
    decode = snapshot_module.decode_payloads

    def replaying(origin, first, payloads, pairs=False):
        entries = decode(origin, first, payloads, pairs)
        replayed.extend(
            (origin, seq, type(payload), entry.tid)
            for seq, payload, entry in zip(
                range(first, first + len(payloads)), payloads, entries
            )
        )
        return entries

    monkeypatch.setattr(snapshot_module, "decode_payloads", replaying)
    want = dict(V3_STORE, x=8, y=8, z=2, w=5)
    want["café"] += 1

    def server():
        return ReplicaServer(
            "site0", peers=["site0", "site1"], data_dir=data,
            method="commu", fsync=True, **FAST,
        )

    async def append():
        origin = server()
        try:
            port = await origin.bind("127.0.0.1", 0)
            client = LiveClient([("127.0.0.1", port)])
            try:
                await client.increment("x", 1)
                await client.update(
                    [IncrementOp("z", 2), IncrementOp("café", 1)]
                )
                await client.increment("x", 1)
            finally:
                await client.close()
            peer = await RawConn.open("127.0.0.1", port)
            peer.send({"type": "peer-hello", "src": "site1"})
            peer.write(encode_bin_batch_frame(
                "site1", 7, [b'[["inc","y",5]]', b'[["inc","w",5]]'],
            ))
            assert await peer.recv() == {"type": "ack", "seq": 8}
            await peer.close()
        finally:
            await origin.stop()

    async def boot():
        origin = server()
        try:
            await origin.bind("127.0.0.1", 0)
            return origin.engine.store.as_dict()
        finally:
            await origin.stop()

    async def restart_and_rewind():
        relayed = []
        done = asyncio.Event()

        async def site1(raw):
            # A peer whose inbox regressed to seq 7: its first ack
            # rewinds the sender, which re-sends from seq 8.
            acked = 7
            while not done.is_set():
                frame = await raw.recv()
                if frame is None:
                    return
                if frame.get("type") != "mset-batch":
                    continue
                first, blobs = frame["first"], frame["blobs"]
                if first <= acked + 1:
                    relayed.extend(enumerate(blobs, first))
                    acked = first + len(blobs) - 1
                raw.write(encode_bin_ack_frame(acked))
                if acked == 11:
                    done.set()

        listener = await listen(site1)
        origin = server()
        try:
            await origin.bind("127.0.0.1", 0)
            store = origin.engine.store.as_dict()
            origin.set_peers({"site1": listener.sockets[0].getsockname()})
            origin.start_channels()
            await asyncio.wait_for(done.wait(), 10)
        finally:
            await origin.stop()
            listener.close()
        return store, relayed

    run(append())
    logged = _data_records(data / "replication.log")
    assert [(seq, type(payload)) for seq, payload in logged] == [
        (8, dict), (9, list), (10, list), (11, list),
    ]
    inbox = _data_records(data / "inbox" / "site1.log")
    assert [(seq, type(payload)) for seq, payload in inbox] == [
        (6, dict), (7, list), (8, list),
    ]
    replayed.clear()
    store, relayed = run(restart_and_rewind())
    assert store == want
    # The restart replayed every line above the image's floors (7 and
    # 5), of both forms and both logs, each under the tid its origin
    # and seq give.
    read = sorted((origin, seq, form) for origin, seq, form, _ in replayed)
    assert read == [
        ("site0", 8, dict), ("site0", 9, list), ("site0", 10, list),
        ("site0", 11, list), ("site1", 6, dict), ("site1", 7, list),
        ("site1", 8, list),
    ]
    for origin, seq, _, tid in replayed:
        assert tid == "%s:%d" % (origin, seq)
    # Both forms re-sent, byte for byte the logged payloads.
    assert [seq for seq, _ in relayed] == [8, 9, 10, 11]
    log = (data / "replication.log").read_bytes()
    for seq, blob in relayed:
        assert b'\n{"seq":%d,"payload":%s}\n' % (seq, blob) in log
    entries = decode("site0", 8, [loads(blob) for _, blob in relayed])
    assert [entry.tid for entry in entries] == [
        "site0:%d" % seq for seq in range(8, 12)
    ]
    # And the replica that relayed them boots into the same store again.
    assert run(boot()) == want


def test_an_awkward_image_is_pulled_in_chunks_and_installs(
    tmp_path, monkeypatch
):
    """An image holding a non-ASCII key and an overflowed value is pure
    ASCII on disk, crosses a chunked pull, and installs the same store
    at the peer — after its checksum refused a pull with one byte
    changed."""
    monkeypatch.setattr(live_server, "SNAPSHOT_CHUNK", 64)
    served = SnapshotStore.served_bytes
    tamper = []

    def serve(store):
        data = served(store)
        if tamper and data is not None:
            at = data.index(b"caf")
            data = data[:at] + b"kaf" + data[at + 3:]
        return data

    monkeypatch.setattr(SnapshotStore, "served_bytes", serve)

    async def scenario():
        cluster = LiveCluster(
            n_sites=2, method="commu", data_dir=tmp_path, **FAST
        )
        await cluster.start()
        try:
            client = await cluster.client("site0")
            await client.increment("café", 2)
            await client.increment("big", 1e308)
            await client.increment("big", 1e308)
            await client.increment("\U0001d11e", 1)
            await cluster.settle()
            want = cluster.servers["site0"].engine.store.as_dict()
            assert want["big"] == math.inf
            await cluster.snapshot("site0")
            image = cluster.servers["site0"].recovery.store.path.read_bytes()
            assert image.isascii() and len(image) > 3 * 64
            assert b"Infinity" in image

            target = cluster.servers["site1"]
            tamper.append(True)
            with pytest.raises(SnapshotError, match="checksum"):
                await target._fetch_snapshot("site0")
            assert target.recovery.installs == 0
            tamper.clear()
            assert await target._fetch_snapshot("site0") == "install"
            assert target.recovery.installs == 1
            assert target.engine.store.as_dict() == want
            assert target.recovery.store.load()["engine"]["store"][
                "values"
            ] == want
        finally:
            await cluster.stop()

    run(scenario())
