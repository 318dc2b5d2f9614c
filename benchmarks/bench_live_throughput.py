"""Live runtime — async update throughput vs the ROWA sync baseline.

The live analogue of E2: on a real 3-replica localhost TCP cluster,
asynchronous replica control (COMMU, ORDUP) commits updates at local
speed while the synchronous write-all baseline pays a round of peer
acknowledgements per commit.  Reported per method: update throughput
(ET/s) and p50/p99 query latency, with convergence checked at
quiescence.

The propagation drain itself — one writer partitioned off, a backlog
committed locally, the heal-to-settle drain across both peer channels
timed — is the repo benchmark's ``drain_backlog`` workload
(``python3 bench/run.py --workload drain_backlog``); frame size is a
``server.py`` constant, so there is no batch-size sweep to run here.

The **overhead mode** answers "what does the observability layer
cost on the hot path?": such a drain is run with metrics + tracing
enabled and with ``observability=False`` (the null registry),
best-of-N each, and the relative throughput delta is
reported.  The acceptance bound is <5% overhead on the drain.

The **shards mode** measures what partitioning the keyspace into
independent replica groups buys on a contended mixed workload.  One
engine owning every key is a convoy: each strict (``epsilon = 0``)
query blocks on whatever lock counters are held, and every apply/ack
wakes *every* blocked query to re-check (O(blocked x events) under
one engine lock).  Sharding divides both the keyspace and the blocked
population by N, so aggregate throughput scales superlinearly in the
convoy regime even on a single core — this is contention removal, not
CPU parallelism.  Run with ``--shards 1,4`` it drives the same
updates + strict-reads workload through the ``ShardRouter`` at each
shard count and reports aggregate ops/s and the speedup.

Standalone:  PYTHONPATH=src python benchmarks/bench_live_throughput.py
             PYTHONPATH=src python benchmarks/bench_live_throughput.py \\
                 --mode overhead --quick
             PYTHONPATH=src python benchmarks/bench_live_throughput.py \\
                 --shards 1,4 --quick --json BENCH_live_shards.json
Under pytest: pytest benchmarks/bench_live_throughput.py --benchmark-only
"""

import asyncio
import json
import os
import pathlib
import time

from repro.consistency import Consistency
from repro.core.transactions import EpsilonSpec
from repro.live import FaultPlan, LiveCluster, ShardedCluster

N_SITES = 3
N_UPDATES = 200
N_QUERIES = 60
KEYS = ["acct%d" % i for i in range(4)]
METHODS = ("commu", "ordup", "rowa")

#: overhead mode: updates committed behind the partition per cycle.
N_PROPAGATION_UPDATES = 400
N_PROPAGATION_UPDATES_QUICK = 120


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


async def _drive(method):
    """One measured run: concurrent updates, then timed queries."""
    cluster = LiveCluster(n_sites=N_SITES, method=method)
    await cluster.start()
    try:
        clients = [await cluster.client(name) for name in cluster.names]

        t0 = time.monotonic()
        await asyncio.gather(
            *(
                clients[i % N_SITES].increment(KEYS[i % len(KEYS)], 1)
                for i in range(N_UPDATES)
            )
        )
        update_seconds = time.monotonic() - t0

        latencies = []
        spec = EpsilonSpec(import_limit=5)
        for i in range(N_QUERIES):
            client = clients[i % N_SITES]
            t1 = time.monotonic()
            await client.query([KEYS[i % len(KEYS)]], spec)
            latencies.append(time.monotonic() - t1)

        await cluster.settle(timeout=30)
        converged = await cluster.converged()
        values = (await cluster.site_values())[cluster.names[0]]
        total = sum(values.get(key, 0) for key in KEYS)
    finally:
        await cluster.stop()
    return {
        "throughput": N_UPDATES / max(update_seconds, 1e-9),
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "converged": converged,
        "total": total,
    }


def run_live_throughput():
    """Run every method; return (report text, per-method data)."""
    data = {}
    for method in METHODS:
        data[method] = asyncio.run(_drive(method))
    lines = [
        "Live runtime: %d-replica localhost TCP cluster, %d update ETs, "
        "%d bounded queries" % (N_SITES, N_UPDATES, N_QUERIES),
        "",
        "%-8s %14s %12s %12s %10s"
        % ("method", "updates (ET/s)", "query p50", "query p99", "converged"),
    ]
    for method in METHODS:
        d = data[method]
        lines.append(
            "%-8s %14.0f %9.2f ms %9.2f ms %10s"
            % (
                method.upper(),
                d["throughput"],
                d["p50_ms"],
                d["p99_ms"],
                "yes" if d["converged"] else "NO",
            )
        )
    return "\n".join(lines), data


OVERHEAD_BOUND_PCT = 5.0
OVERHEAD_CYCLES = 5
OVERHEAD_CYCLES_QUICK = 3


async def _drive_overhead(observability, n_updates, cycles):
    """Best-of-``cycles`` drain rate inside ONE cluster boot.

    A fresh cluster per sample makes the comparison hostage to boot-
    to-boot machine drift (±15% observed), which swamps the effect
    being measured; repeating the partition → backlog → heal → settle
    cycle against one booted cluster and keeping the best cycle gives
    a stable estimate of peak drain throughput.  fsync stays off so
    group-commit timing jitter does not enter the measurement — the
    point is the CPU cost of the metrics + trace calls on the hot
    path, not disk scheduling."""
    plan = FaultPlan(0)
    cluster = LiveCluster(
        n_sites=N_SITES,
        method="commu",
        faults=plan,
        fsync=False,
        observability=observability,
        server_options={"retry_base": 0.005, "retry_max": 0.02},
    )
    await cluster.start()
    rates = []
    try:
        writer = cluster.names[0]
        others = cluster.names[1:]
        client = await cluster.client(writer)
        for _ in range(cycles):
            plan.partition([[writer], others])
            for i in range(n_updates):
                await client.increment(KEYS[i % len(KEYS)], 1)
            t0 = time.monotonic()
            plan.heal_all()
            await cluster.settle(timeout=120)
            elapsed = time.monotonic() - t0
            rates.append(
                n_updates * (N_SITES - 1) / max(elapsed, 1e-9)
            )
        converged = await cluster.converged()
    finally:
        await cluster.stop()
    assert converged, "overhead run diverged"
    return max(rates), rates


def run_metrics_overhead(quick=False, cycles=None):
    """Propagation drain with observability on vs off (null registry),
    reporting the relative throughput cost of the metrics + trace
    instrumentation on the hot path."""
    n_updates = (
        N_PROPAGATION_UPDATES_QUICK if quick else N_PROPAGATION_UPDATES
    )
    if cycles is None:
        cycles = OVERHEAD_CYCLES_QUICK if quick else OVERHEAD_CYCLES
    best = {}
    for enabled in (False, True):
        best[enabled], _ = asyncio.run(
            _drive_overhead(enabled, n_updates, cycles)
        )
    overhead_pct = 100.0 * (1.0 - best[True] / max(best[False], 1e-9))
    lines = [
        "Observability overhead on the propagation drain "
        "(%d updates/cycle, best of %d cycles each)"
        % (n_updates, cycles),
        "",
        "%-16s %14s" % ("observability", "msets/s"),
        "%-16s %14.0f" % ("off (null)", best[False]),
        "%-16s %14.0f" % ("on", best[True]),
        "",
        "overhead: %.1f%% (bound: <%.0f%%)"
        % (overhead_pct, OVERHEAD_BOUND_PCT),
    ]
    data = {
        "off_msets_per_sec": best[False],
        "on_msets_per_sec": best[True],
        "overhead_pct": overhead_pct,
    }
    return "\n".join(lines), data


#: shards mode: the contended mixed workload.  32 keys spread the
#: crc32 routing evenly across up to 8 groups; the strict reads are
#: the convoy — each one parks on the owning engine's condition
#: variable until its key's lock counters drain, and every apply/ack
#: wakes all parked readers on that engine to re-check.
SHARD_KEYS = ["k%03d" % i for i in range(32)]
SHARD_UPDATES = 600
SHARD_READS = 200
SHARD_UPDATES_QUICK = 240
SHARD_READS_QUICK = 80
#: full-mode acceptance: 4 shards must sustain >= 2.5x the aggregate
#: throughput of 1 shard on this workload.  Quick (CI smoke) runs
#: only require any speedup at all — shared runners are too noisy
#: for a calibrated bound.
SHARD_SPEEDUP_BOUND = 2.5


async def _drive_shards(n_shards, n_updates, n_reads):
    """One measured run: the mixed convoy workload at ``n_shards``.

    An update burst is issued with the strict (``epsilon = 0``) reads
    pipelined right behind it, and the elapsed time to *full
    completion* is measured — the reads block on the burst's pending
    lock counters, and that blocking is the effect under test, so it
    cannot be split out of the clock.  Settle/convergence/totals are
    checked after the clock stops."""
    cluster = ShardedCluster(n_shards=n_shards, replicas=N_SITES,
                             method="commu")
    await cluster.start()
    try:
        router = cluster.router()
        # Pre-dial every group: a cold dial inside the timed window
        # queues the update frames behind the handshake and lets the
        # reads reach the server first, dissolving the very backlog
        # contention being measured.
        await router.ping()
        ops = []
        for i in range(n_updates):
            ops.append(router.increment(SHARD_KEYS[i % len(SHARD_KEYS)], 1))
        for i in range(n_reads):
            ops.append(router.read(SHARD_KEYS[i % len(SHARD_KEYS)],
                                   Consistency.STRICT))
        t0 = time.monotonic()
        await asyncio.gather(*ops)
        elapsed = time.monotonic() - t0

        await router.settle(timeout=60)
        converged = await cluster.converged()
        values = await router.values()
        total = sum(values.get(key, 0) for key in SHARD_KEYS)
    finally:
        await cluster.stop()
    n_ops = n_updates + n_reads
    return {
        "n_shards": n_shards,
        "n_updates": n_updates,
        "n_reads": n_reads,
        "seconds": elapsed,
        "ops_per_sec": n_ops / max(elapsed, 1e-9),
        "converged": converged,
        "total": total,
    }


def run_shard_scaling(counts=(1, 4), quick=False):
    """Drive the convoy workload at each shard count; report the
    aggregate ops/s and the speedup over the first count."""
    n_updates = SHARD_UPDATES_QUICK if quick else SHARD_UPDATES
    n_reads = SHARD_READS_QUICK if quick else SHARD_READS
    data = {}
    for count in counts:
        data[count] = asyncio.run(
            _drive_shards(count, n_updates, n_reads)
        )
    baseline = data[counts[0]]["ops_per_sec"]
    lines = [
        "Shard scaling: %d updates + %d strict reads over %d keys, "
        "%d-replica COMMU group per shard (cpu_count=%s)"
        % (n_updates, n_reads, len(SHARD_KEYS), N_SITES, os.cpu_count()),
        "",
        "%-8s %12s %14s %10s %10s"
        % ("shards", "elapsed (s)", "ops/s", "speedup", "converged"),
    ]
    for count in counts:
        d = data[count]
        lines.append(
            "%-8d %12.3f %14.0f %9.1fx %10s"
            % (
                count,
                d["seconds"],
                d["ops_per_sec"],
                d["ops_per_sec"] / max(baseline, 1e-9),
                "yes" if d["converged"] else "NO",
            )
        )
    return "\n".join(lines), data


def test_live_throughput(benchmark, show):
    from conftest import run_once

    text, data = run_once(benchmark, run_live_throughput)
    show(text)

    for method in METHODS:
        assert data[method]["converged"], "%s diverged" % method
        assert data[method]["total"] == N_UPDATES, "%s lost updates" % method

    # The asynchronous methods commit without a synchronous peer round:
    # their update throughput beats the write-all baseline.
    assert data["commu"]["throughput"] > data["rowa"]["throughput"]


def test_shard_scaling(benchmark, show):
    from conftest import run_once

    text, data = run_once(
        benchmark, run_shard_scaling, counts=(1, 4), quick=True
    )
    show(text)

    expected = SHARD_UPDATES_QUICK
    for count in (1, 4):
        d = data[count]
        assert d["converged"], "shards=%d diverged" % count
        assert d["total"] == expected, "shards=%d lost updates" % count
    # The calibrated 2.5x bound is asserted on the standalone full
    # run; loaded CI machines get the looser any-speedup bound.
    assert data[4]["ops_per_sec"] > data[1]["ops_per_sec"]


def _main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode",
        choices=("throughput", "overhead", "shards", "all"),
        default="all",
    )
    parser.add_argument(
        "--shards", default=None, metavar="COUNTS",
        help="comma-separated shard counts to compare (e.g. 1,4); "
        "implies --mode shards",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller backlogs and workloads (CI smoke runs)",
    )
    parser.add_argument(
        "--json", nargs="?", const="BENCH_live_shards.json",
        default=None, metavar="PATH",
        help="write shards-mode results to PATH as JSON",
    )
    args = parser.parse_args(argv)
    if args.shards:
        args.mode = "shards"

    started = time.monotonic()
    if args.mode in ("throughput", "all"):
        text, _ = run_live_throughput()
        print(text)
        print()
    if args.mode == "overhead":
        text, data = run_metrics_overhead(quick=args.quick)
        print(text)
        if data["overhead_pct"] >= OVERHEAD_BOUND_PCT:
            print(
                "\nFAIL: observability overhead %.1f%% exceeds %.0f%%"
                % (data["overhead_pct"], OVERHEAD_BOUND_PCT)
            )
            return 1
    if args.mode == "shards":
        counts = tuple(
            int(part) for part in (args.shards or "1,4").split(",")
        )
        text, data = run_shard_scaling(counts, quick=args.quick)
        print(text)
        for count in counts:
            if not data[count]["converged"]:
                print("\nFAIL: shards=%d diverged" % count)
                return 1
            if data[count]["total"] != data[count]["n_updates"]:
                print("\nFAIL: shards=%d lost updates" % count)
                return 1
        speedup = None
        if len(counts) > 1:
            base, top = counts[0], counts[-1]
            speedup = (
                data[top]["ops_per_sec"]
                / max(data[base]["ops_per_sec"], 1e-9)
            )
            bound = 1.0 if args.quick else SHARD_SPEEDUP_BOUND
            if speedup < bound or (args.quick and speedup <= 1.0):
                print(
                    "\nFAIL: shards=%d speedup %.2fx below %.1fx bound"
                    % (top, speedup, bound)
                )
                return 1
        if args.json:
            path = args.json
            payload = {
                "benchmark": "live_shards",
                "quick": args.quick,
                "cpu_count": os.cpu_count(),
                "results": [data[count] for count in counts],
                "speedup": speedup,
            }
            pathlib.Path(path).write_text(
                json.dumps(payload, indent=2) + "\n"
            )
            print("\nwrote %s" % path)
    print("\ntotal wall time: %.1fs" % (time.monotonic() - started))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_main())
