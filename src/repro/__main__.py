"""Command-line entry point: experiments and the live runtime.

Usage::

    python -m repro list                 # show experiment ids
    python -m repro run T1 E3            # run selected experiments
    python -m repro run all              # run everything (takes ~10 s)
    python -m repro run all -o results/  # also save one .txt per id
        # exits 1 if an experiment raises or one of its runs fails
        # the ESR audit (harness/audit.py), naming the guarantee

    python -m repro serve --name site0 --port 7000 \\
        --peers site1=127.0.0.1:7001,site2=127.0.0.1:7002 \\
        --data /var/lib/repro/site0 --method commu

    python -m repro serve --shards 4 --replicas 3 --admin-port 7100
        # sharded: 4 replica groups + an admin endpoint for migrate

    python -m repro live-demo            # 3-replica cluster demo
    python -m repro chaos --seed 7       # seeded fault-injection run
    python -m repro chaos --seed 7 --artifacts out/  # + metrics/trace
    python -m repro chaos --scenario rejoin --seed 7 # disk-wipe rejoin
    python -m repro chaos --scenario migrate --seed 7  # live shard move
    python -m repro chaos --scenario elect --seed 7    # sequencer failover
    python -m repro chaos --scenario wan --seed 7      # region partition
    python -m repro chaos --scenario saga --seed 7     # COMPE saga storm
    python -m repro migrate --admin-port 7100 --shard 1  # move shard 1
    python -m repro metrics-dump --port 7000         # scrape one replica
    python -m repro snapshot --port 7000             # checkpoint + compact
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import traceback
from typing import Dict, List, Optional, Tuple

from .harness.experiments import EXPERIMENTS
from .harness.runner import audit_failures

#: the live runtime's methods, in ``live.engine.ENGINES`` order (not
#: imported from there: ``list`` and ``run`` load no live code).
LIVE_METHODS = ("commu", "ordup", "rowa", "ritu", "ritu-mv", "compe")

_DESCRIPTIONS = {
    "T1": "Table 1: replica-control method characteristics",
    "T2": "Table 2: 2PL compatibility for ORDUP ETs",
    "T3": "Table 3: 2PL compatibility for COMMU ETs",
    "E1": "worked example log (1): epsilon-serial but not SR",
    "E2": "update latency vs number of replicas (async vs sync)",
    "E3": "query error vs epsilon limit",
    "E4": "divergence over time; convergence at quiescence",
    "E5": "ORDUP free vs global-order queries",
    "E6": "COMMU lock-counter limits",
    "E7": "RITU overwrite vs multiversion (VTNC)",
    "E8": "COMPE compensation strategy costs",
    "E9": "availability during a partition",
    "E10": "commit latency vs link latency",
}


def _cmd_list() -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for eid in EXPERIMENTS:
        print("%-*s  %s" % (width, eid, _DESCRIPTIONS.get(eid, "")))
    return 0


def _cmd_run(ids: List[str], out_dir: Optional[str] = None) -> int:
    if ids == ["all"]:
        ids = list(EXPERIMENTS)
    unknown = [eid for eid in ids if eid not in EXPERIMENTS]
    if unknown:
        print("unknown experiment(s): %s" % ", ".join(unknown),
              file=sys.stderr)
        print("use 'python -m repro list' to see the registry",
              file=sys.stderr)
        return 2
    destination = None
    if out_dir is not None:
        destination = pathlib.Path(out_dir)
        destination.mkdir(parents=True, exist_ok=True)
    failed = False
    for eid in ids:
        with audit_failures() as problems:
            try:
                text, _ = EXPERIMENTS[eid]()
            except Exception:
                print("experiment %s raised:" % eid, file=sys.stderr)
                traceback.print_exc()
                failed = True
                continue
        for problem in problems:
            print("experiment %s failed its audit: %s" % (eid, problem),
                  file=sys.stderr)
            failed = True
        print(text)
        print()
        if destination is not None:
            (destination / ("%s.txt" % eid)).write_text(text + "\n")
    return 1 if failed else 0


def _parse_peers(spec: str) -> Dict[str, Tuple[str, int]]:
    """Parse ``name=host:port,name=host:port`` peer listings."""
    peers: Dict[str, Tuple[str, int]] = {}
    if not spec:
        return peers
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            name, addr = part.split("=", 1)
            host, port = addr.rsplit(":", 1)
            peers[name.strip()] = (host.strip(), int(port))
        except ValueError:
            raise SystemExit("malformed peer %r (want name=host:port)" % part)
    return peers


def _cmd_serve_shards(args: argparse.Namespace) -> int:
    """Boot a sharded deployment in one process: ``--shards`` replica
    groups plus a tiny admin endpoint (same frame protocol) answering
    ``ping`` / ``shard-map`` / ``settle`` / ``migrate`` / ``stats`` —
    the ``migrate`` subcommand talks to it."""
    import asyncio

    from .live.cluster import ShardedCluster
    from .live.protocol import FrameProtocol

    async def main() -> int:
        cluster = ShardedCluster(
            n_shards=args.shards,
            replicas=args.replicas,
            method=args.method,
            data_dir=pathlib.Path(args.data) if args.data else None,
            host=args.host,
            fsync=args.fsync,
        )
        await cluster.start()
        answering = set()

        async def answer(conn, frame) -> None:
            rid = frame.get("id")
            verb = frame.get("verb")
            try:
                if verb == "ping":
                    body = {
                        "shards": cluster.n_shards,
                        "epoch": cluster.map.epoch,
                    }
                elif verb == "shard-map":
                    body = {"map": cluster.map.to_dict()}
                elif verb == "settle":
                    wait = float(frame.get("wait", 30.0))
                    await cluster.settle(timeout=wait)
                    body = {"drained": True}
                elif verb == "migrate":
                    new_map = await cluster.migrate(int(frame.get("shard", 0)))
                    body = {"map": new_map.to_dict()}
                elif verb == "stats":
                    body = {"stats": await cluster.shard_stats()}
                else:
                    raise ValueError("unknown admin verb %r" % verb)
                reply = {"type": "response", "id": rid, "ok": True, **body}
            except Exception as exc:
                reply = {
                    "type": "response",
                    "id": rid,
                    "ok": False,
                    "error": str(exc),
                    "code": type(exc).__name__,
                }
            conn.frames.send(reply)

        def on_admin(conn, frame) -> None:
            task = asyncio.ensure_future(answer(conn, frame))
            answering.add(task)
            task.add_done_callback(answering.discard)

        admin_server = await asyncio.get_running_loop().create_server(
            lambda: FrameProtocol(on_admin), args.host, args.admin_port
        )
        admin_port = admin_server.sockets[0].getsockname()[1]
        print(
            "sharded %s cluster: %d shards x %d replicas, admin on %s:%d"
            % (
                args.method,
                args.shards,
                args.replicas,
                args.host,
                admin_port,
            )
        )
        for shard, group in enumerate(cluster.groups):
            print(
                "  shard %d: %s"
                % (
                    shard,
                    ", ".join(
                        "%s=%s:%d" % (n, h, p)
                        for n, (h, p) in sorted(group.addrs.items())
                    ),
                )
            )
        try:
            while True:
                await asyncio.sleep(3600)
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            admin_server.close()
            await cluster.stop()
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .live.server import ReplicaServer

    if args.shards:
        return _cmd_serve_shards(args)
    if not args.name or not args.data:
        raise SystemExit(
            "serve needs --name and --data (or --shards N for the "
            "sharded in-process deployment)"
        )
    peers = _parse_peers(args.peers)

    if getattr(args, "uvloop", False):
        # uvloop is optional: fall back to the default loop when the
        # environment doesn't ship it (never auto-installed).
        try:
            import uvloop

            uvloop.install()
            print("event loop: uvloop")
        except ImportError:
            print(
                "warning: --uvloop requested but uvloop is not "
                "installed; using the default event loop"
            )

    async def main() -> int:
        server = ReplicaServer(
            args.name,
            peers=list(peers) + [args.name],
            data_dir=pathlib.Path(args.data),
            method=args.method,
            fsync=args.fsync,
            snapshot_interval=args.snapshot_interval,
            backlog_limit=args.backlog_limit,
            heartbeat_interval=args.heartbeat_interval,
            suspect_after=args.suspect_after,
        )
        port = await server.bind(args.host, args.port)
        server.set_peers(peers)
        server.start_channels()
        print(
            "replica %s (%s) serving on %s:%d, data in %s"
            % (args.name, args.method, args.host, port, args.data)
        )
        try:
            while True:
                await asyncio.sleep(3600)
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await server.stop()
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return 0


def _cmd_live_demo(args: argparse.Namespace) -> int:
    import asyncio
    import time

    from .live.cluster import LiveCluster

    async def main() -> int:
        cluster = LiveCluster(n_sites=args.sites, method=args.method)
        await cluster.start()
        print(
            "booted %d-replica %s cluster on localhost: %s"
            % (
                args.sites,
                args.method.upper(),
                ", ".join(
                    "%s=%s:%d" % (n, h, p)
                    for n, (h, p) in sorted(cluster.addrs.items())
                ),
            )
        )
        clients = [await cluster.client(name) for name in cluster.names]
        # RITU admits only read-independent (blind) writes; every other
        # method gets the commutative increment workload.
        if args.method in ("ritu", "ritu-mv"):
            submit = lambda c, i: c.write("account%d" % (i % 4), i)
        else:
            submit = lambda c, i: c.increment("account%d" % (i % 4), 1)
        t0 = time.monotonic()
        await asyncio.gather(
            *(
                submit(clients[i % len(clients)], i)
                for i in range(args.updates)
            )
        )
        elapsed = time.monotonic() - t0
        print(
            "%d concurrent update ETs committed in %.3fs (%.0f ET/s)"
            % (args.updates, elapsed, args.updates / max(elapsed, 1e-9))
        )
        bounded = await clients[1].query(["account0", "account1"])
        print(
            "bounded query at site1: values=%r inconsistency=%d"
            % (bounded["values"], bounded["inconsistency"])
        )
        await cluster.settle()
        converged = await cluster.converged()
        values = (await cluster.site_values())[cluster.names[0]]
        print("settled; converged=%s, state=%r" % (converged, values))
        await cluster.stop()
        return 0 if converged else 1

    return asyncio.run(main())


#: chaos flag (argparse dest) -> the config field(s) it sets, per
#: scenario (the keys of ``repro.live.chaos.SCENARIOS``, spelled here so
#: building the parser does not import the live runtime); every
#: scenario also reads --seed and --artifacts.  A flag a scenario does
#: not read is an error, not a silent no-op.
_CHAOS_FLAGS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "faults": {
        "sites": ("n_sites",),
        "method": ("method",),
        "updates": ("n_updates",),
        "queries": ("n_queries",),
        "duration": ("workload_duration",),
        "no_crash": ("crash",),
    },
    "rejoin": {
        "sites": ("n_sites",),
        "method": ("method",),
        "updates": ("n_updates_before", "n_updates_during"),
        "no_wipe": ("wipe",),
    },
    "migrate": {
        "shards": ("n_shards",),
        "method": ("method",),
        "no_crash": ("crash_during",),
    },
    "elect": {"sites": ("n_sites",), "updates": ("n_updates_during",)},
    "wan": {"method": ("method",), "updates": ("n_updates_before",)},
    "saga": {
        "sites": ("n_sites",),
        "sagas": ("n_sagas",),
        "saga_steps": ("steps_per_saga",),
        "no_crash": ("crash",),
        "no_wipe": ("wipe",),
    },
}


def _cmd_chaos(args: argparse.Namespace, error) -> int:
    from .live.chaos import SCENARIOS, run_scenario_sync

    reads = _CHAOS_FLAGS[args.scenario]
    fields = {"seed": args.seed}
    for flag in sorted({f for m in _CHAOS_FLAGS.values() for f in m}):
        value = getattr(args, flag)
        if value is None:  # unset: the config's own default stands
            continue
        if flag not in reads:
            error(
                "--%s is not read by --scenario %s (it reads: %s)"
                % (
                    flag.replace("_", "-"),
                    args.scenario,
                    " ".join("--" + f.replace("_", "-") for f in reads),
                )
            )
        fields.update(dict.fromkeys(reads[flag], value))
    config = SCENARIOS[args.scenario][0](**fields)
    report = run_scenario_sync(
        config,
        artifacts_dir=pathlib.Path(args.artifacts) if args.artifacts else None,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_migrate(args: argparse.Namespace) -> int:
    """Ask a sharded deployment's admin endpoint to live-migrate one
    shard onto a fresh replica group; prints the new shard map."""
    import asyncio
    import json as json_mod

    from .live.client import request_once

    async def main() -> int:
        reply = await request_once(
            (args.host, args.admin_port),
            "migrate",
            timeout=args.timeout,
            shard=args.shard,
        )
        print(json_mod.dumps(reply["map"], indent=2, sort_keys=True))
        return 0

    return asyncio.run(main())


def _cmd_snapshot(args: argparse.Namespace) -> int:
    """Ask one live replica to checkpoint + compact, via the
    ``snapshot`` verb."""
    import asyncio
    import json as json_mod

    from .live.client import LiveClient

    async def main() -> int:
        client = await LiveClient.connect(
            args.host, args.port, reconnect=False, request_timeout=60.0
        )
        try:
            result = await client.snapshot()
        finally:
            await client.close()
        print(json_mod.dumps(result, indent=2, sort_keys=True))
        return 0

    return asyncio.run(main())


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Open-loop zipfian load against a live deployment (or an
    in-process cluster booted for the run)."""
    import json as json_mod

    from .workload.loadgen import LoadgenConfig, run_loadgen_sync

    addrs = None
    if args.addr:
        addrs = []
        for item in args.addr:
            host, _, port = item.rpartition(":")
            addrs.append((host or "127.0.0.1", int(port)))
    config = LoadgenConfig(
        users=args.users,
        think_time=args.think_time,
        duration=args.duration,
        rate=args.rate,
        keys=args.keys,
        zipf_s=args.zipf,
        write_fraction=args.write_fraction,
        epsilon=args.epsilon,
        connections=args.connections,
        session_pool=args.sessions,
        seed=args.seed,
        sites=args.sites,
        method=args.method,
        addrs=addrs,
    )
    report = run_loadgen_sync(config)
    print(report.render())
    if args.json:
        with open(args.json, "w") as handle:
            json_mod.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        print("wrote %s" % args.json)
    return 0


def _cmd_metrics_dump(args: argparse.Namespace) -> int:
    """Scrape one live replica's ``metrics`` verb and print it."""
    import asyncio
    import json as json_mod

    from .live.client import LiveClient

    async def main() -> int:
        client = await LiveClient.connect(
            args.host, args.port, reconnect=False, request_timeout=10.0
        )
        try:
            scrape = await client.metrics()
        finally:
            await client.close()
        if args.format == "prom":
            sys.stdout.write(scrape["prometheus"])
        else:
            print(
                json_mod.dumps(
                    {
                        "site": scrape["site"],
                        "metrics": scrape["metrics"],
                        "trace_recorded": scrape["trace_recorded"],
                        "trace_dropped": scrape["trace_dropped"],
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        return 0

    return asyncio.run(main())


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the experiments of Pu & Leff (SIGMOD 1991).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run = sub.add_parser("run", help="run experiments by id (or 'all')")
    run.add_argument("ids", nargs="+", metavar="ID")
    run.add_argument(
        "-o", "--out", metavar="DIR", default=None,
        help="also save each experiment's table to DIR/<ID>.txt",
    )
    serve = sub.add_parser(
        "serve", help="run one live replica server (asyncio TCP)"
    )
    serve.add_argument(
        "--name", default=None,
        help="this site's name (single-replica mode)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument(
        "--peers", default="",
        help="comma-separated name=host:port peer listing",
    )
    serve.add_argument(
        "--data", default=None,
        help="durable queue / log directory (required unless --shards); "
        "booted empty while its peers remember this site, the replica "
        "rejoins by installing a peer snapshot",
    )
    serve.add_argument(
        "--shards", type=int, default=0,
        help="boot a sharded deployment instead: N replica groups in "
        "this process, plus an admin endpoint for live migration",
    )
    serve.add_argument(
        "--replicas", type=int, default=3,
        help="replicas per shard group (sharded mode)",
    )
    serve.add_argument(
        "--admin-port", type=int, default=0,
        help="admin endpoint port in sharded mode (0 = ephemeral)",
    )
    serve.add_argument("--method", default="commu", choices=LIVE_METHODS)
    serve.add_argument(
        "--fsync", action="store_true",
        help="fsync durable logs on every append",
    )
    serve.add_argument(
        "--uvloop", action="store_true",
        help="use uvloop for the event loop when available "
        "(falls back to the default loop with a warning)",
    )
    serve.add_argument(
        "--snapshot-interval", type=float, default=0.0,
        help="seconds between automatic snapshots + log compaction "
        "(0 = manual only, via the snapshot verb)",
    )
    serve.add_argument(
        "--backlog-limit", type=int, default=0,
        help="per-channel durable backlog above which client updates "
        "are refused with OVERLOADED (0 = unlimited)",
    )
    serve.add_argument(
        "--heartbeat-interval", type=float, default=0.25,
        help="seconds between peer heartbeats (jittered +/-25%% "
        "per site)",
    )
    serve.add_argument(
        "--suspect-after", type=float, default=0.75,
        help="floor on the adaptive failure-detector timeout: a peer "
        "silent this long (or longer, on jittery links) is suspected",
    )
    demo = sub.add_parser(
        "live-demo", help="boot an in-process live cluster and drive it"
    )
    demo.add_argument("--sites", type=int, default=3)
    demo.add_argument("--method", default="commu", choices=LIVE_METHODS)
    demo.add_argument("--updates", type=int, default=200)
    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection run asserting the ESR invariants",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--scenario", default="faults", choices=sorted(_CHAOS_FLAGS),
        help="'faults' = drops/partition/crash (default); 'rejoin' = "
        "snapshot + compaction + disk-wipe anti-entropy rejoin; "
        "'migrate' = live shard cutover under routed write load "
        "(crash mid-migration unless --no-crash); 'elect' = kill the "
        "ORDUP sequencer, measure the failover blackout, fence the "
        "resurrected stale leader; 'wan' = two modeled WAN regions, "
        "full region partition, epsilon-bounded availability on both "
        "sides; 'saga' = COMPE compensation storm with a disk-wipe "
        "crash of one replica mid-storm (exact-convergence check)",
    )
    # Every flag below defaults to None = "the scenario config's own
    # default"; docs/LIVE.md tabulates which scenario reads which.
    chaos.add_argument("--sites", type=int)
    chaos.add_argument("--method", choices=LIVE_METHODS)
    chaos.add_argument(
        "--updates", type=int,
        help="faults: total updates; rejoin: before and during the "
        "outage, each; elect: during the outage; wan: before the "
        "partition",
    )
    chaos.add_argument("--queries", type=int, help="faults: bounded queries")
    chaos.add_argument(
        "--duration", type=float,
        help="faults: seconds the workload is paced to span",
    )
    chaos.add_argument("--shards", type=int, help="migrate: number of shards")
    chaos.add_argument("--sagas", type=int, help="saga: sagas submitted")
    chaos.add_argument(
        "--saga-steps", type=int, help="saga: update steps per saga"
    )
    chaos.add_argument(
        "--no-crash", action="store_const", const=False,
        help="faults/saga: skip the crash/restart phase; migrate: no "
        "crash mid-migration",
    )
    chaos.add_argument(
        "--no-wipe", action="store_const", const=False,
        help="rejoin/saga: keep the victim's disk (long downtime "
        "instead of disk loss)",
    )
    chaos.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="persist per-site metrics (.prom, metrics.json) and the "
        "merged lifecycle trace (trace.jsonl) under DIR",
    )
    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop zipfian load driver: simulate 10^5-10^6 "
        "thinking users against a live replica group and report "
        "p50/p95/p99 latency and throughput",
    )
    loadgen.add_argument(
        "--users", type=int, default=100_000,
        help="simulated concurrent user population (sets the offered "
        "rate: users / think-time requests per second)",
    )
    loadgen.add_argument(
        "--think-time", type=float, default=50.0,
        help="mean seconds a user thinks between requests",
    )
    loadgen.add_argument(
        "--duration", type=float, default=4.0,
        help="seconds of offered load",
    )
    loadgen.add_argument(
        "--rate", type=float, default=None,
        help="override the offered rate (req/s) directly",
    )
    loadgen.add_argument("--keys", type=int, default=512)
    loadgen.add_argument(
        "--zipf", type=float, default=1.1, help="zipf skew of key access"
    )
    loadgen.add_argument(
        "--write-fraction", type=float, default=0.10,
        help="fraction of requests that are increments",
    )
    loadgen.add_argument(
        "--epsilon", type=float, default=8.0,
        help="inconsistency budget of bounded reads",
    )
    loadgen.add_argument(
        "--connections", type=int, default=8,
        help="pipelined client connections sharing the load",
    )
    loadgen.add_argument(
        "--sessions", type=int, default=10_000,
        help="sticky session-token pool bound",
    )
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument(
        "--sites", type=int, default=3,
        help="in-process cluster size (ignored with --addr)",
    )
    loadgen.add_argument("--method", default="commu", choices=LIVE_METHODS)
    loadgen.add_argument(
        "--addr", action="append", default=None, metavar="HOST:PORT",
        help="connect to an existing deployment instead of booting an "
        "in-process cluster (repeat for failover addresses)",
    )
    loadgen.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the full report as JSON",
    )
    metrics_dump = sub.add_parser(
        "metrics-dump",
        help="scrape one live replica's metrics verb and print it",
    )
    metrics_dump.add_argument("--host", default="127.0.0.1")
    metrics_dump.add_argument("--port", type=int, required=True)
    metrics_dump.add_argument(
        "--format", default="prom", choices=("prom", "json"),
        help="Prometheus text (default) or the JSON mirror",
    )
    snapshot = sub.add_parser(
        "snapshot",
        help="make one live replica checkpoint + compact its logs now",
    )
    snapshot.add_argument("--host", default="127.0.0.1")
    snapshot.add_argument("--port", type=int, required=True)
    migrate = sub.add_parser(
        "migrate",
        help="live-migrate one shard of a sharded deployment onto a "
        "fresh replica group (epoch-fenced cutover)",
    )
    migrate.add_argument("--host", default="127.0.0.1")
    migrate.add_argument(
        "--admin-port", type=int, required=True,
        help="the sharded deployment's admin endpoint port",
    )
    migrate.add_argument(
        "--shard", type=int, required=True, help="shard index to move"
    )
    migrate.add_argument(
        "--timeout", type=float, default=120.0,
        help="cutover wall-clock budget in seconds",
    )
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "live-demo":
        return _cmd_live_demo(args)
    if args.command == "chaos":
        return _cmd_chaos(args, chaos.error)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "metrics-dump":
        return _cmd_metrics_dump(args)
    if args.command == "snapshot":
        return _cmd_snapshot(args)
    if args.command == "migrate":
        return _cmd_migrate(args)
    return _cmd_run(args.ids, args.out)


if __name__ == "__main__":
    sys.exit(main())
