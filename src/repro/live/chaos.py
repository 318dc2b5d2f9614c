"""Chaos harness: seeded fault schedules against a live cluster.

Turns the paper's availability argument (experiment E9) into an
empirical live result.  One :func:`run_chaos` run boots a real
localhost TCP cluster, installs a seeded
:class:`~repro.live.faults.FaultPlan` (frame drops, delays,
duplications, reorders), and drives a concurrent update/query workload
while the harness injects one network partition and one crash/restart.
Throughout and afterwards it checks the invariants the paper claims
hold under exactly this abuse:

* **No acknowledged update is ever lost** — for every key, the
  converged value is at least the number of client-acknowledged
  increments (and at most the number attempted, catching
  double-application by the retry machinery just as much as loss).
* **Query error never exceeds the declared epsilon budget** — every
  bounded query's reported inconsistency is within its limit, faults
  or not.
* **Degraded-mode honesty** — during the partition, the isolated
  replica keeps answering epsilon-bounded queries, while an
  ``epsilon = 0`` query fails fast with the typed ``UNAVAILABLE`` code
  instead of hanging.
* **Convergence at quiescence** — after all faults heal, every replica
  settles to identical one-copy state.

A second scenario, :func:`run_rejoin`, exercises the recovery stack:
the cluster takes writes everywhere (so the victim owns acknowledged
state), snapshots + compacts (so that history is no longer replayable
from any log), then the victim loses its disk entirely (or just goes
away for a long time, with ``wipe=False``) while the survivors keep
writing.  On restart the victim must rejoin by anti-entropy — install
a donor snapshot, drain only the log tails — and the harness asserts
no acknowledged update was lost (including the victim's own pre-wipe
updates, which exist *only* in donor snapshots at that point), that
the rejoin went through a snapshot install rather than full replay,
that the cluster reconverges to one-copy state, and that the rejoined
victim accepts new updates with fresh, non-colliding transaction ids.

A third scenario, :func:`run_migrate`, abuses the sharding layer: a
sharded cluster takes routed writes, then one shard is live-migrated
onto a fresh replica group *while the write workload keeps running* —
and, optionally, one replacement replica is crashed between the fence
and the state transfer and healed shortly after.  The harness asserts
the epoch-fenced cutover loses no acknowledged update, that every
replacement replica joined by snapshot install (a migration is a
rejoin), that the fenced-out group honestly refuses with
``WRONG_SHARD`` afterwards, and that the cluster reconverges with the
migrated shard fully writable at the new epoch.

A fourth scenario, :func:`run_elect`, targets the ORDUP sequencer's
single point of failure: the cluster warms up, the elected leader is
killed, and the harness measures the *blackout window* — crash to the
first survivor-acknowledged update, spanning failure detection, the
epoch-bumping election, and order-acquisition retry — then resurrects
the deposed leader and immediately asks it for an order token.  The
asserts are the failover safety claims: the election happened, no
acknowledged update was lost, the stale leader never granted at its
old epoch (no two leaders commit in one epoch), every site agrees on
the final leadership view, and the cluster reconverges.

A fifth scenario, :func:`run_wan`, runs the cluster across modeled
multi-region WAN links (tens of milliseconds of latency plus a
bandwidth ceiling between regions) and severs the inter-region links
mid-run.  Both sides must stay live within their epsilon budgets —
bounded reads answer with honest inconsistency accounting and
asynchronous writes keep acking region-locally — while ``epsilon = 0``
reads refuse fast with the typed ``UNAVAILABLE`` code; after the heal
the regions must reconverge to one-copy state.

A sixth scenario, :func:`run_saga`, targets COMPE's crash-safe
backward recovery: a cluster of COMPE replicas takes auto-committed
updates plus multi-step sagas, half the sagas are aborted — a
*compensation storm* — and one replica is crashed (optionally
disk-wiped) in the middle of it, rejoining while decisions are still
landing.  The asserts are exact: every key converges to precisely the
sum of committed effects (no acked-update loss, no lost compensation,
no double-applied compensation), re-issuing every abort decision after
the heal changes nothing (idempotent compensation-log replay — the
``decided`` lists must come back empty and per-replica compensation
counters must not move), an ``abort=True`` update is reported with the
typed ``COMPENSATED`` code carrying its undone tid, and the run must
count a nonzero number of compensations — a silent-zero run fails
loudly instead of passing vacuously.

Reproducible from the CLI::

    python -m repro chaos --seed 7
    python -m repro chaos --seed 7 --method ordup --no-crash
    python -m repro chaos --scenario rejoin --seed 7
    python -m repro chaos --scenario migrate --seed 7
    python -m repro chaos --scenario elect --seed 7
    python -m repro chaos --scenario wan --seed 7
    python -m repro chaos --scenario saga --seed 7
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..consistency import Consistency
from ..core.operations import IncrementOp
from ..core.transactions import EpsilonSpec
from ..obs.trace import dump_events_jsonl, merge_traces
from .client import LiveClient, LiveETFailed, RequestTimeout
from .cluster import LiveCluster, ShardedCluster
from .faults import FaultPlan, LinkFaults
from .shard import key_shard

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "ElectConfig",
    "ElectReport",
    "MigrateConfig",
    "MigrateReport",
    "RejoinConfig",
    "RejoinReport",
    "SagaConfig",
    "SagaReport",
    "WanConfig",
    "WanReport",
    "persist_cluster_artifacts",
    "run_chaos",
    "run_chaos_sync",
    "run_elect",
    "run_elect_sync",
    "run_migrate",
    "run_migrate_sync",
    "run_rejoin",
    "run_rejoin_sync",
    "run_saga",
    "run_saga_sync",
    "run_wan",
    "run_wan_sync",
]


@dataclass(frozen=True)
class ChaosConfig:
    """One reproducible chaos scenario.  Everything randomized is
    drawn from ``seed``, so a report names the exact run to replay."""

    seed: int = 0
    n_sites: int = 3
    method: str = "commu"
    n_updates: int = 120
    n_queries: int = 36
    update_workers: int = 6
    query_workers: int = 4
    #: the update/query workload is paced to span this many seconds so
    #: it overlaps the fault schedule below.
    workload_duration: float = 4.0
    keys: Tuple[str, ...] = ("acct0", "acct1", "acct2", "acct3")
    epsilons: Tuple[int, ...] = (1, 2, 5, 10)
    #: link fault rates, applied to every inter-replica link.
    drop: float = 0.08
    duplicate: float = 0.05
    reorder: float = 0.10
    delay_max: float = 0.012
    #: partition: isolate the last site for ``partition_duration``.
    partition_at: float = 0.3
    partition_duration: float = 2.0
    #: crash/restart of the last site after the partition heals.
    crash: bool = True
    crash_at: float = 2.6
    crash_duration: float = 0.5
    #: failure-detector tuning for the cluster under test.
    heartbeat_interval: float = 0.15
    suspect_after: float = 0.6
    request_timeout: float = 20.0
    settle_timeout: float = 60.0


@dataclass
class ChaosReport:
    """What one chaos run observed, and whether the invariants held."""

    config: ChaosConfig
    acked: Dict[str, int] = field(default_factory=dict)
    attempted: Dict[str, int] = field(default_factory=dict)
    final: Dict[str, Any] = field(default_factory=dict)
    update_failures: int = 0
    queries_ok: int = 0
    bounded_failures: int = 0
    epsilon_violations: List[Tuple[float, int]] = field(default_factory=list)
    #: strict probe during the partition: (elapsed seconds, error code).
    strict_probe: Optional[Tuple[float, str]] = None
    #: bounded probe during the partition at the isolated replica.
    partition_bounded_ok: Optional[bool] = None
    partition_bounded_inconsistency: Optional[int] = None
    converged: bool = False
    fault_counts: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: observability cross-check: bounded trace query events whose
    #: recorded inconsistency exceeded their recorded limit.
    trace_epsilon_breaches: List[Tuple[float, int]] = field(
        default_factory=list
    )
    #: degraded gauge flips (0 -> 1) seen across all replica traces —
    #: the partition must be *visible* to an operator, not just felt.
    degraded_flips: int = 0
    #: paths of persisted artifacts (when an artifacts dir was given).
    artifacts: Dict[str, str] = field(default_factory=dict)

    def violations(self) -> List[str]:
        """Every broken invariant, as human-readable findings."""
        out: List[str] = []
        for epsilon, seen in self.epsilon_violations:
            out.append(
                "epsilon budget breached: query with epsilon=%s observed "
                "inconsistency %d" % (epsilon, seen)
            )
        for limit, seen in self.trace_epsilon_breaches:
            out.append(
                "server trace shows epsilon breach: bounded query "
                "(limit=%s) recorded inconsistency %d" % (limit, seen)
            )
        for key in sorted(set(self.acked) | set(self.final)):
            acked = self.acked.get(key, 0)
            attempted = self.attempted.get(key, 0)
            got = self.final.get(key, 0)
            if got < acked:
                out.append(
                    "acked update lost: %s converged to %s but %d "
                    "increments were acknowledged" % (key, got, acked)
                )
            if got > attempted:
                out.append(
                    "update double-applied: %s converged to %s but only "
                    "%d increments were attempted" % (key, got, attempted)
                )
        if self.strict_probe is not None:
            elapsed, code = self.strict_probe
            if code != "UNAVAILABLE":
                out.append(
                    "partitioned epsilon=0 query did not fail with "
                    "UNAVAILABLE (got %r)" % code
                )
            if elapsed >= 1.0:
                out.append(
                    "partitioned epsilon=0 query took %.2fs to fail "
                    "(must be < 1 s)" % elapsed
                )
        if self.partition_bounded_ok is False:
            out.append(
                "bounded query did not answer during the partition"
            )
        if not self.converged:
            out.append("replicas did not converge after faults healed")
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()

    def render(self) -> str:
        cfg = self.config
        lines = [
            "Chaos run: seed=%d method=%s sites=%d (drop=%.0f%% dup=%.0f%% "
            "reorder=%.0f%% delay<=%.0fms, 1 partition%s)"
            % (
                cfg.seed,
                cfg.method.upper(),
                cfg.n_sites,
                cfg.drop * 100,
                cfg.duplicate * 100,
                cfg.reorder * 100,
                cfg.delay_max * 1e3,
                ", 1 crash/restart" if cfg.crash else "",
            ),
            "",
            "updates: %d acked, %d failed-or-unknown of %d attempted"
            % (
                sum(self.acked.values()),
                self.update_failures,
                sum(self.attempted.values()),
            ),
            "queries: %d answered within budget, %d unavailable/timed out"
            % (self.queries_ok, self.bounded_failures),
        ]
        if self.strict_probe is not None:
            elapsed, code = self.strict_probe
            lines.append(
                "partitioned epsilon=0 probe: %s in %.0f ms"
                % (code or "(succeeded)", elapsed * 1e3)
            )
        if self.partition_bounded_inconsistency is not None:
            lines.append(
                "partitioned bounded probe: answered with "
                "inconsistency=%d" % self.partition_bounded_inconsistency
            )
        lines.append(
            "faults injected: "
            + ", ".join(
                "%s=%d" % (k, v) for k, v in sorted(self.fault_counts.items())
            )
        )
        lines.append("converged after heal: %s" % ("yes" if self.converged else "NO"))
        if self.degraded_flips:
            lines.append(
                "degraded gauge flips observed: %d" % self.degraded_flips
            )
        if self.artifacts:
            lines.append(
                "artifacts: %s" % self.artifacts.get("dir", "")
            )
        lines.append("")
        problems = self.violations()
        if problems:
            lines.append("INVARIANT VIOLATIONS (%d):" % len(problems))
            lines.extend("  - " + p for p in problems)
        else:
            lines.append(
                "all invariants held: no acked-update loss, no epsilon "
                "breach, honest degradation, converged (%.1fs wall)"
                % self.wall_seconds
            )
        return "\n".join(lines)


async def run_chaos(
    config: ChaosConfig,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> ChaosReport:
    """Execute one seeded chaos scenario; never raises on invariant
    failure — inspect :meth:`ChaosReport.violations`.

    With ``artifacts_dir``, the run persists every replica's metrics
    (``<site>.prom`` Prometheus text + one combined ``metrics.json``)
    and the merged lifecycle trace (``trace.jsonl``) for offline
    inspection; the same trace feeds two extra in-process checks —
    bounded queries never recorded inconsistency above their limit,
    and the partition showed up as degraded gauge flips.
    """
    started = time.monotonic()
    plan = FaultPlan(
        config.seed,
        default=LinkFaults(
            drop=config.drop,
            duplicate=config.duplicate,
            reorder=config.reorder,
            delay_max=config.delay_max,
        ),
    )
    cluster = LiveCluster(
        n_sites=config.n_sites,
        method=config.method,
        data_dir=data_dir,
        faults=plan,
        suspect_after=config.suspect_after,
        heartbeat_interval=config.heartbeat_interval,
    )
    report = ChaosReport(config=config)
    rng = random.Random(config.seed)
    await cluster.start()
    try:
        await _drive_scenario(cluster, plan, config, rng, report)
        # All faults are healed; the rate-based ones (drops, delays)
        # stay on, proving settle tolerates steady-state loss too.
        await cluster.settle(timeout=config.settle_timeout)
        report.converged = await cluster.converged()
        values = await cluster.site_values()
        if values:
            any_site = next(iter(values.values()))
            report.final = {
                key: any_site.get(key, 0) for key in config.keys
            }
        _observability_checks(cluster, report)
        if artifacts_dir is not None:
            report.artifacts = await persist_cluster_artifacts(
                cluster, pathlib.Path(artifacts_dir)
            )
    finally:
        report.fault_counts = dict(plan.counts)
        report.wall_seconds = time.monotonic() - started
        await cluster.stop()
    return report


def _observability_checks(cluster: LiveCluster, report: ChaosReport) -> None:
    """Cross-check the run against what the servers *recorded*: the
    client-side violation list and the server-side trace must agree
    that no bounded query exceeded its budget, and the degraded gauge
    must have flipped while the partition was in force."""
    for server in cluster.servers.values():
        for event in server.trace.snapshot():
            kind = event.get("kind")
            if kind == "degraded" and event.get("value") == 1:
                report.degraded_flips += 1
            elif kind == "query":
                limit = event.get("limit")
                seen = event.get("inconsistency", 0)
                if limit is not None and seen > limit:
                    report.trace_epsilon_breaches.append((limit, seen))


async def persist_cluster_artifacts(
    cluster: LiveCluster, artifacts_dir: pathlib.Path
) -> Dict[str, str]:
    """Write per-site Prometheus text, combined JSON metrics, and the
    merged lifecycle trace under ``artifacts_dir``."""
    artifacts_dir.mkdir(parents=True, exist_ok=True)
    out: Dict[str, str] = {"dir": str(artifacts_dir)}
    scrapes = await cluster.site_metrics()
    combined: Dict[str, Any] = {}
    for name, scrape in sorted(scrapes.items()):
        prom_path = artifacts_dir / ("%s.prom" % name)
        prom_path.write_text(scrape["prometheus"], encoding="utf-8")
        out[name] = str(prom_path)
        combined[name] = scrape["metrics"]
    metrics_path = artifacts_dir / "metrics.json"
    metrics_path.write_text(
        json.dumps(combined, indent=2, sort_keys=True), encoding="utf-8"
    )
    out["metrics"] = str(metrics_path)
    trace_path = artifacts_dir / "trace.jsonl"
    merged = merge_traces(
        server.trace for _, server in sorted(cluster.servers.items())
    )
    dump_events_jsonl(merged, trace_path)
    out["trace"] = str(trace_path)
    return out


async def _drive_scenario(cluster, plan, config, rng, report) -> None:
    names = list(cluster.names)
    isolated = names[-1]
    clients: Dict[str, LiveClient] = {}
    for name in names:
        clients[name] = await cluster.client(
            name, request_timeout=config.request_timeout
        )
    #: sites safe to aim workload at (shrinks around the crash window).
    targets = set(names)

    async def one_update(key: str, site: str) -> None:
        report.attempted[key] = report.attempted.get(key, 0) + 1
        try:
            await clients[site].increment(key, 1)
        except (LiveETFailed, ConnectionError, OSError, asyncio.TimeoutError):
            report.update_failures += 1
        else:
            report.acked[key] = report.acked.get(key, 0) + 1

    async def update_worker(quota: int, worker_rng: random.Random) -> None:
        pace = config.workload_duration / max(quota, 1)
        for _ in range(quota):
            site = worker_rng.choice(sorted(targets))
            key = worker_rng.choice(config.keys)
            await one_update(key, site)
            await asyncio.sleep(worker_rng.uniform(0.5, 1.0) * pace)

    async def query_worker(quota: int, worker_rng: random.Random) -> None:
        pace = config.workload_duration / max(quota, 1)
        for i in range(quota):
            site = worker_rng.choice(sorted(targets))
            epsilon = config.epsilons[i % len(config.epsilons)]
            key = worker_rng.choice(config.keys)
            try:
                outcome = await clients[site].query(
                    [key], EpsilonSpec(import_limit=epsilon)
                )
            except (
                LiveETFailed,
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
            ):
                report.bounded_failures += 1
            else:
                report.queries_ok += 1
                if outcome["inconsistency"] > epsilon:
                    report.epsilon_violations.append(
                        (epsilon, outcome["inconsistency"])
                    )
            await asyncio.sleep(worker_rng.uniform(0.5, 1.0) * pace)

    async def partition_phase() -> None:
        await asyncio.sleep(config.partition_at)
        heal_at = (
            time.monotonic()
            + config.partition_duration
        )
        plan.partition([[isolated], [n for n in names if n != isolated]])
        # Let the failure detector age the severed peers out.
        await asyncio.sleep(
            config.suspect_after + 3 * config.heartbeat_interval
        )
        probe_key = config.keys[0]
        t0 = time.monotonic()
        try:
            await clients[isolated].read(
                probe_key, Consistency.STRICT, timeout=5.0
            )
        except LiveETFailed as exc:
            report.strict_probe = (time.monotonic() - t0, exc.code)
        except (ConnectionError, OSError) as exc:
            report.strict_probe = (
                time.monotonic() - t0,
                type(exc).__name__,
            )
        else:
            report.strict_probe = (time.monotonic() - t0, "")
        # Availability: the partitioned replica still answers bounded
        # queries, with honest error accounting.
        try:
            outcome = await clients[isolated].query(
                [probe_key], EpsilonSpec(import_limit=10_000), timeout=5.0
            )
        except (LiveETFailed, ConnectionError, OSError):
            report.partition_bounded_ok = False
        else:
            report.partition_bounded_ok = True
            report.partition_bounded_inconsistency = outcome[
                "inconsistency"
            ]
        await asyncio.sleep(max(0.0, heal_at - time.monotonic()))
        plan.heal_all()

    async def crash_phase() -> None:
        if not config.crash:
            return
        await asyncio.sleep(config.crash_at)
        victim = isolated
        targets.discard(victim)
        await cluster.kill(victim)
        await asyncio.sleep(config.crash_duration)
        await cluster.restart(victim)
        # The restarted replica listens on a fresh port: re-dial.
        await clients[victim].close()
        clients[victim] = await cluster.client(
            victim, request_timeout=config.request_timeout
        )
        targets.add(victim)

    per_updater = max(1, config.n_updates // config.update_workers)
    per_querier = max(1, config.n_queries // config.query_workers)
    tasks = [
        update_worker(per_updater, random.Random(rng.random()))
        for _ in range(config.update_workers)
    ]
    tasks += [
        query_worker(per_querier, random.Random(rng.random()))
        for _ in range(config.query_workers)
    ]
    tasks += [partition_phase(), crash_phase()]
    await asyncio.gather(*tasks)


def run_chaos_sync(
    config: ChaosConfig,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> ChaosReport:
    """Blocking wrapper for CLI / benchmark use."""
    return asyncio.run(run_chaos(config, data_dir, artifacts_dir))


# -- disk-wipe / long-downtime rejoin scenario --------------------------------


@dataclass(frozen=True)
class RejoinConfig:
    """One reproducible rejoin scenario.

    The victim is always the *last* site: with ORDUP the sequencer
    starts at the lexicographically first site, and keeping it out of
    the blast radius means this scenario measures rejoin mechanics,
    not leader failover (losing the sequencer now triggers an
    epoch-fenced election — :func:`run_elect` covers that path).
    """

    seed: int = 0
    n_sites: int = 3
    method: str = "commu"
    #: True destroys the victim's data dir (disk loss); False only
    #: keeps it down (long downtime — recovery via channel redelivery
    #: unless ``catchup_lag`` forces a snapshot install).
    wipe: bool = True
    #: updates across *all* sites before the outage — the victim's own
    #: acked updates are the state a wiped disk cannot replay back.
    n_updates_before: int = 60
    #: updates at the surviving donors while the victim is down.
    n_updates_during: int = 60
    #: updates at the rejoined victim afterwards (tid-collision probe).
    n_updates_after: int = 12
    keys: Tuple[str, ...] = ("acct0", "acct1", "acct2", "acct3")
    #: receiver lag (records) past which a sender prefers peer-reset
    #: over channel rewind; 0 = only when the log cannot serve.
    catchup_lag: int = 0
    fsync: bool = False
    heartbeat_interval: float = 0.15
    suspect_after: float = 0.6
    request_timeout: float = 20.0
    settle_timeout: float = 60.0
    #: wall-clock budget for the victim's snapshot install on rejoin.
    rejoin_timeout: float = 30.0


@dataclass
class RejoinReport:
    """What one rejoin run observed, and whether the invariants held."""

    config: RejoinConfig
    acked: Dict[str, int] = field(default_factory=dict)
    attempted: Dict[str, int] = field(default_factory=dict)
    #: converged values just before the outage (must survive it).
    pre_outage: Dict[str, Any] = field(default_factory=dict)
    final: Dict[str, Any] = field(default_factory=dict)
    update_failures: int = 0
    #: serialized snapshot sizes at the pre-outage checkpoint.
    snapshot_bytes: Dict[str, int] = field(default_factory=dict)
    #: records dropped by the pre-outage compaction, cluster-wide.
    compacted_records: int = 0
    #: snapshot installs the victim performed while rejoining.
    catchup_installs: int = 0
    #: restart-to-settled wall time for the victim.
    rejoin_seconds: float = 0.0
    #: updates acked at the victim after rejoin.
    victim_acked_after: int = 0
    converged: bool = False
    wall_seconds: float = 0.0
    artifacts: Dict[str, str] = field(default_factory=dict)

    def violations(self) -> List[str]:
        out: List[str] = []
        for key in sorted(set(self.acked) | set(self.final)):
            acked = self.acked.get(key, 0)
            attempted = self.attempted.get(key, 0)
            got = self.final.get(key, 0)
            if got < acked:
                out.append(
                    "acked update lost across the outage: %s converged "
                    "to %s but %d increments were acknowledged"
                    % (key, got, acked)
                )
            if got > attempted:
                out.append(
                    "update double-applied: %s converged to %s but only "
                    "%d increments were attempted" % (key, got, attempted)
                )
        if self.config.wipe and self.catchup_installs < 1:
            out.append(
                "wiped replica rejoined without a snapshot install "
                "(full replay should have been impossible)"
            )
        if not self.converged:
            out.append("replicas did not reconverge after the rejoin")
        if self.config.n_updates_after and self.victim_acked_after == 0:
            out.append(
                "rejoined replica acknowledged no new updates"
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()

    def render(self) -> str:
        cfg = self.config
        lines = [
            "Rejoin run: seed=%d method=%s sites=%d (%s victim, "
            "%d+%d+%d updates)"
            % (
                cfg.seed,
                cfg.method.upper(),
                cfg.n_sites,
                "disk-wipe" if cfg.wipe else "long-downtime",
                cfg.n_updates_before,
                cfg.n_updates_during,
                cfg.n_updates_after,
            ),
            "",
            "updates: %d acked, %d failed-or-unknown of %d attempted"
            % (
                sum(self.acked.values()),
                self.update_failures,
                sum(self.attempted.values()),
            ),
            "pre-outage checkpoint: %d log records compacted, "
            "snapshots %s bytes"
            % (
                self.compacted_records,
                "/".join(
                    str(v) for _, v in sorted(self.snapshot_bytes.items())
                ),
            ),
            "rejoin: %d snapshot install(s), settled %.2fs after restart"
            % (self.catchup_installs, self.rejoin_seconds),
            "victim after rejoin: %d new updates acked"
            % self.victim_acked_after,
            "reconverged: %s" % ("yes" if self.converged else "NO"),
        ]
        if self.artifacts:
            lines.append("artifacts: %s" % self.artifacts.get("dir", ""))
        lines.append("")
        problems = self.violations()
        if problems:
            lines.append("INVARIANT VIOLATIONS (%d):" % len(problems))
            lines.extend("  - " + p for p in problems)
        else:
            lines.append(
                "all invariants held: no acked-update loss across the "
                "%s, snapshot rejoin, reconverged (%.1fs wall)"
                % (
                    "disk wipe" if cfg.wipe else "outage",
                    self.wall_seconds,
                )
            )
        return "\n".join(lines)


async def run_rejoin(
    config: RejoinConfig,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> RejoinReport:
    """Execute one seeded rejoin scenario; never raises on invariant
    failure — inspect :meth:`RejoinReport.violations`."""
    started = time.monotonic()
    cluster = LiveCluster(
        n_sites=config.n_sites,
        method=config.method,
        data_dir=data_dir,
        fsync=config.fsync,
        suspect_after=config.suspect_after,
        heartbeat_interval=config.heartbeat_interval,
        server_options={"catchup_lag": config.catchup_lag},
    )
    report = RejoinReport(config=config)
    rng = random.Random(config.seed)
    await cluster.start()
    try:
        names = list(cluster.names)
        victim = names[-1]
        donors = [n for n in names if n != victim]
        clients: Dict[str, LiveClient] = {}
        for name in names:
            clients[name] = await cluster.client(
                name, request_timeout=config.request_timeout
            )

        async def spray(count: int, sites: Sequence[str]) -> int:
            acked = 0
            for _ in range(count):
                site = rng.choice(list(sites))
                key = rng.choice(config.keys)
                report.attempted[key] = report.attempted.get(key, 0) + 1
                try:
                    await clients[site].increment(key, 1)
                except (
                    LiveETFailed,
                    ConnectionError,
                    OSError,
                    asyncio.TimeoutError,
                    RequestTimeout,
                ):
                    report.update_failures += 1
                else:
                    report.acked[key] = report.acked.get(key, 0) + 1
                    acked += 1
            return acked

        # Phase 1: everyone takes writes, then checkpoint + compact.
        # After this the victim's own updates live only in snapshots —
        # every log record at or below the frontiers is gone.
        await spray(config.n_updates_before, names)
        await cluster.settle(timeout=config.settle_timeout)
        snaps = await cluster.snapshot_all()
        report.snapshot_bytes = {
            name: int(s.get("bytes", 0)) for name, s in snaps.items()
        }
        report.compacted_records = sum(
            int(s.get("compacted", 0)) for s in snaps.values()
        )
        values = await cluster.site_values()
        report.pre_outage = {
            key: next(iter(values.values())).get(key, 0)
            for key in config.keys
        }

        # Phase 2: the victim loses its disk (or just goes dark) while
        # the donors keep writing.
        if config.wipe:
            await cluster.wipe(victim)
        else:
            await cluster.kill(victim)
        if not cluster.servers[donors[0]].engine.sync_commit:
            await spray(config.n_updates_during, donors)
        # (sync-commit methods — the ROWA baseline — cannot accept
        # writes with a replica down; that unavailability is exactly
        # what the paper's asynchronous methods avoid, so the outage
        # phase is write-free for them.)

        # Phase 3: restart and measure restart-to-settled.
        t0 = time.monotonic()
        await cluster.restart(victim)
        if config.wipe:
            await cluster.wait_caught_up(
                victim, timeout=config.rejoin_timeout
            )
        await cluster.settle(timeout=config.settle_timeout)
        report.rejoin_seconds = time.monotonic() - t0
        report.catchup_installs = cluster.servers[victim].catchup_installs

        # Phase 4: the rejoined victim must be a first-class replica
        # again — new updates, fresh tids, full propagation.
        await clients[victim].close()
        clients[victim] = await cluster.client(
            victim, request_timeout=config.request_timeout
        )
        report.victim_acked_after = await spray(
            config.n_updates_after, [victim]
        )
        await cluster.settle(timeout=config.settle_timeout)
        report.converged = await cluster.converged()
        values = await cluster.site_values()
        if values:
            any_site = next(iter(values.values()))
            report.final = {
                key: any_site.get(key, 0) for key in config.keys
            }
        if artifacts_dir is not None:
            report.artifacts = await persist_cluster_artifacts(
                cluster, pathlib.Path(artifacts_dir)
            )
    finally:
        report.wall_seconds = time.monotonic() - started
        await cluster.stop()
    return report


def run_rejoin_sync(
    config: RejoinConfig,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> RejoinReport:
    """Blocking wrapper for CLI / benchmark use."""
    return asyncio.run(run_rejoin(config, data_dir, artifacts_dir))


# -- live shard migration scenario ---------------------------------------------


@dataclass(frozen=True)
class MigrateConfig:
    """One reproducible live-migration scenario.

    ``crash_during=True`` kills one replacement replica in the window
    between the fence and the state transfer — the point where a
    buggy cutover would lose acknowledged updates — and heals it
    after ``crash_heal_delay`` seconds; the migration must stall and
    then complete, not fail.
    """

    seed: int = 0
    n_shards: int = 3
    replicas: int = 3
    method: str = "commu"
    #: routed updates before / concurrently with / after the cutover.
    n_updates_before: int = 45
    n_updates_during: int = 30
    n_updates_after: int = 30
    #: the shard that moves groups mid-workload.
    migrate_shard_index: int = 1
    #: enough keys that every shard owns several.
    keys: Tuple[str, ...] = tuple("acct%d" % i for i in range(8))
    crash_during: bool = True
    crash_heal_delay: float = 0.4
    heartbeat_interval: float = 0.15
    suspect_after: float = 0.6
    request_timeout: float = 20.0
    settle_timeout: float = 60.0
    #: wall-clock budget for the cutover (also the router's patience
    #: window for requests caught mid-migration).
    migration_timeout: float = 30.0


@dataclass
class MigrateReport:
    """What one migration run observed, and whether the invariants
    held."""

    config: MigrateConfig
    acked: Dict[str, int] = field(default_factory=dict)
    attempted: Dict[str, int] = field(default_factory=dict)
    final: Dict[str, Any] = field(default_factory=dict)
    update_failures: int = 0
    #: keys owned by the migrated shard (the blast radius).
    migrated_keys: Tuple[str, ...] = ()
    epoch_before: int = 0
    epoch_after: int = 0
    migration_seconds: float = 0.0
    #: shard maps the router adopted from WRONG_SHARD refusals.
    router_map_refreshes: int = 0
    #: snapshot installs across the replacement group (one per
    #: replica proves migration went through the rejoin machinery).
    new_group_installs: int = 0
    #: post-cutover probe: the fenced-out group refuses WRONG_SHARD.
    old_group_refuses: Optional[bool] = None
    #: post-cutover strict (epsilon=0) read of a migrated key.
    strict_read_ok: bool = False
    converged: bool = False
    wall_seconds: float = 0.0
    artifacts: Dict[str, str] = field(default_factory=dict)

    def violations(self) -> List[str]:
        out: List[str] = []
        for key in sorted(set(self.acked) | set(self.final)):
            acked = self.acked.get(key, 0)
            attempted = self.attempted.get(key, 0)
            got = self.final.get(key, 0)
            if got < acked:
                out.append(
                    "acked update lost across the migration: %s "
                    "converged to %s but %d increments were "
                    "acknowledged" % (key, got, acked)
                )
            if got > attempted:
                out.append(
                    "update double-applied: %s converged to %s but "
                    "only %d increments were attempted"
                    % (key, got, attempted)
                )
        if self.epoch_after <= self.epoch_before:
            out.append(
                "shard-map epoch did not advance (%d -> %d)"
                % (self.epoch_before, self.epoch_after)
            )
        if self.new_group_installs < self.config.replicas:
            out.append(
                "replacement group installed %d snapshot(s), expected "
                "one per replica (%d) — the cutover bypassed the "
                "rejoin machinery"
                % (self.new_group_installs, self.config.replicas)
            )
        if self.old_group_refuses is False:
            out.append(
                "fenced-out group still serves its old shard instead "
                "of refusing WRONG_SHARD"
            )
        if not self.strict_read_ok:
            out.append(
                "strict (epsilon=0) read of a migrated key failed "
                "after the cutover"
            )
        if not self.converged:
            out.append("replicas did not converge after the migration")
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()

    def render(self) -> str:
        cfg = self.config
        lines = [
            "Migration run: seed=%d method=%s shards=%d x%d replicas "
            "(%d+%d+%d routed updates%s)"
            % (
                cfg.seed,
                cfg.method.upper(),
                cfg.n_shards,
                cfg.replicas,
                cfg.n_updates_before,
                cfg.n_updates_during,
                cfg.n_updates_after,
                ", crash mid-migration" if cfg.crash_during else "",
            ),
            "",
            "updates: %d acked, %d failed-or-unknown of %d attempted"
            % (
                sum(self.acked.values()),
                self.update_failures,
                sum(self.attempted.values()),
            ),
            "shard %d (%d keys) cut over in %.2fs: epoch %d -> %d, "
            "%d snapshot install(s), %d router map refresh(es)"
            % (
                cfg.migrate_shard_index,
                len(self.migrated_keys),
                self.migration_seconds,
                self.epoch_before,
                self.epoch_after,
                self.new_group_installs,
                self.router_map_refreshes,
            ),
            "old group post-cutover: %s"
            % (
                "refuses WRONG_SHARD"
                if self.old_group_refuses
                else "STILL SERVING"
            ),
            "strict read at new owner: %s"
            % ("ok" if self.strict_read_ok else "FAILED"),
            "reconverged: %s" % ("yes" if self.converged else "NO"),
        ]
        if self.artifacts:
            lines.append("artifacts: %s" % self.artifacts.get("dir", ""))
        lines.append("")
        problems = self.violations()
        if problems:
            lines.append("INVARIANT VIOLATIONS (%d):" % len(problems))
            lines.extend("  - " + p for p in problems)
        else:
            lines.append(
                "all invariants held: no acked-update loss across the "
                "cutover, snapshot-install rejoin, honest WRONG_SHARD "
                "fencing, converged (%.1fs wall)" % self.wall_seconds
            )
        return "\n".join(lines)


async def run_migrate(
    config: MigrateConfig,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> MigrateReport:
    """Execute one seeded live-migration scenario; never raises on
    invariant failure — inspect :meth:`MigrateReport.violations`."""
    started = time.monotonic()
    cluster = ShardedCluster(
        n_shards=config.n_shards,
        replicas=config.replicas,
        method=config.method,
        data_dir=data_dir,
        suspect_after=config.suspect_after,
        heartbeat_interval=config.heartbeat_interval,
    )
    report = MigrateReport(config=config)
    rng = random.Random(config.seed)
    shard = config.migrate_shard_index % config.n_shards
    report.migrated_keys = tuple(
        k for k in config.keys if key_shard(k, config.n_shards) == shard
    )
    heal_tasks: List[asyncio.Task] = []
    await cluster.start()
    try:
        router = cluster.router(
            migration_wait=config.migration_timeout,
            client_options={"request_timeout": config.request_timeout},
        )

        async def spray(count: int, pace: float = 0.0) -> None:
            for _ in range(count):
                key = rng.choice(config.keys)
                report.attempted[key] = report.attempted.get(key, 0) + 1
                try:
                    await router.increment(key, 1)
                except (
                    LiveETFailed,
                    ConnectionError,
                    OSError,
                    asyncio.TimeoutError,
                    RequestTimeout,
                ):
                    report.update_failures += 1
                else:
                    report.acked[key] = report.acked.get(key, 0) + 1
                if pace:
                    await asyncio.sleep(rng.uniform(0.5, 1.0) * pace)

        # Phase 1: routed writes so the migrating shard owns
        # acknowledged state, checkpointed nowhere but its group.
        await spray(config.n_updates_before)
        await cluster.settle(timeout=config.settle_timeout)
        report.epoch_before = cluster.map.epoch
        old_group = cluster.groups[shard]
        old_addr = old_group.addrs[old_group.names[0]]

        # Phase 2: live cutover, with the write workload still
        # running through the router — requests that catch the fence
        # retry off the WRONG_SHARD map hint.
        async def crash_mid_migration() -> None:
            if not config.crash_during:
                return
            pending = cluster.pending
            victim = pending.names[-1]
            await pending.kill(victim)

            async def heal() -> None:
                await asyncio.sleep(config.crash_heal_delay)
                await pending.restart(victim)

            heal_tasks.append(asyncio.create_task(heal()))

        t0 = time.monotonic()
        migration = asyncio.ensure_future(
            cluster.migrate(
                shard,
                before_install=crash_mid_migration,
                settle_timeout=config.settle_timeout,
                step_timeout=config.migration_timeout,
            )
        )
        await spray(config.n_updates_during, pace=0.02)
        await migration
        report.migration_seconds = time.monotonic() - t0
        report.epoch_after = cluster.map.epoch
        report.new_group_installs = sum(
            server.catchup_installs
            for server in cluster.groups[shard].servers.values()
        )

        # Phase 3: the new owner is a first-class group — more routed
        # writes, a strict read, and an honest refusal from the old
        # group when addressed directly at its stale address.
        await spray(config.n_updates_after)
        await cluster.settle(timeout=config.settle_timeout)
        if report.migrated_keys:
            probe_key = report.migrated_keys[0]
            try:
                await router.read(probe_key, Consistency.STRICT)
                report.strict_read_ok = True
            except (LiveETFailed, ConnectionError, OSError):
                report.strict_read_ok = False
            stale = await LiveClient.connect(
                *old_addr, reconnect=False, request_timeout=5.0
            )
            try:
                await stale.read(probe_key)
                report.old_group_refuses = False
            except LiveETFailed as exc:
                report.old_group_refuses = exc.wrong_shard
            except (ConnectionError, OSError):
                report.old_group_refuses = None  # already decommissioned
            finally:
                await stale.close()
        else:  # pragma: no cover — 8 keys over <= 8 shards always hit
            report.strict_read_ok = True
        report.router_map_refreshes = router.map_refreshes
        report.converged = await cluster.converged()
        report.final = {
            key: value
            for key, value in (await cluster.values()).items()
            if key in config.keys
        }
        if artifacts_dir is not None:
            base = pathlib.Path(artifacts_dir)
            report.artifacts = {"dir": str(base)}
            for index, group in enumerate(cluster.groups):
                sub = await persist_cluster_artifacts(
                    group, base / ("shard%d" % index)
                )
                report.artifacts["shard%d" % index] = sub["dir"]
    finally:
        for task in heal_tasks:
            if not task.done():
                task.cancel()
        report.wall_seconds = time.monotonic() - started
        await cluster.stop()
    return report


def run_migrate_sync(
    config: MigrateConfig,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> MigrateReport:
    """Blocking wrapper for CLI / benchmark use."""
    return asyncio.run(run_migrate(config, data_dir, artifacts_dir))


# -- sequencer failover scenario ----------------------------------------------


@dataclass(frozen=True)
class ElectConfig:
    """One reproducible sequencer-failover scenario (ORDUP only).

    The initial sequencer (the elected leader, or the lexicographic
    default before any election) is killed at quiescence; the harness
    measures the *blackout window* — crash to first survivor-acked
    update, which spans failure detection, the election, and the
    survivors' order-acquisition retry — then resurrects the deposed
    leader and probes it for a stale-epoch order grant (the
    split-brain check).  Killing at quiescence is deliberate: an
    origin that crashes between grant and durable log loses only
    unacknowledged work (a documented liveness-only window), and this
    scenario is about the safety claims.
    """

    seed: int = 0
    n_sites: int = 3
    method: str = "ordup"
    #: updates across *all* sites before the crash (warm-up, so the
    #: victim owns acknowledged, fully propagated state).
    n_updates_before: int = 40
    #: updates at the survivors while the old leader stays down.
    n_updates_during: int = 40
    #: updates routed *through the resurrected ex-leader* afterwards —
    #: they must reach the new sequencer and ack.
    n_updates_after: int = 12
    keys: Tuple[str, ...] = ("acct0", "acct1", "acct2", "acct3")
    fsync: bool = False
    heartbeat_interval: float = 0.1
    suspect_after: float = 0.4
    request_timeout: float = 30.0
    settle_timeout: float = 60.0
    #: wall-clock budget for the blackout window (detector
    #: dead-escalation + election + lease + retry).
    blackout_limit: float = 15.0
    #: wall-clock budget for the new epoch to appear in stats.
    elect_timeout: float = 20.0


@dataclass
class ElectReport:
    """What one failover run observed, and whether the invariants held."""

    config: ElectConfig
    old_leader: str = ""
    new_leader: str = ""
    epoch_before: int = 0
    epoch_after: int = 0
    #: crash -> first survivor-acked update, seconds.
    blackout_seconds: float = 0.0
    #: outcome of the order-token probe against the resurrected stale
    #: leader: (error code, granted epoch).  An empty code with an
    #: epoch below ``epoch_after`` is a split brain.
    stale_probe: Optional[Tuple[str, int]] = None
    #: the resurrected ex-leader's epoch once it resynced.
    resynced_epoch: int = 0
    #: every site's final (epoch, leader) view — must agree.
    leader_views: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    acked: Dict[str, int] = field(default_factory=dict)
    attempted: Dict[str, int] = field(default_factory=dict)
    final: Dict[str, Any] = field(default_factory=dict)
    update_failures: int = 0
    #: updates acked through the resurrected ex-leader.
    revenant_acked: int = 0
    converged: bool = False
    wall_seconds: float = 0.0
    artifacts: Dict[str, str] = field(default_factory=dict)

    def violations(self) -> List[str]:
        out: List[str] = []
        for key in sorted(set(self.acked) | set(self.final)):
            acked = self.acked.get(key, 0)
            attempted = self.attempted.get(key, 0)
            got = self.final.get(key, 0)
            if got < acked:
                out.append(
                    "acked update lost across the failover: %s converged "
                    "to %s but %d increments were acknowledged"
                    % (key, got, acked)
                )
            if got > attempted:
                out.append(
                    "update double-applied: %s converged to %s but only "
                    "%d increments were attempted" % (key, got, attempted)
                )
        if self.epoch_after <= self.epoch_before:
            out.append(
                "crashing the sequencer did not trigger an election "
                "(epoch stayed at %d)" % self.epoch_before
            )
        elif not self.new_leader or self.new_leader == self.old_leader:
            out.append(
                "leadership did not move off the crashed sequencer"
            )
        if self.blackout_seconds > self.config.blackout_limit:
            out.append(
                "failover blackout %.2fs exceeded the %.1fs budget"
                % (self.blackout_seconds, self.config.blackout_limit)
            )
        if self.stale_probe is not None:
            code, epoch = self.stale_probe
            if not code and epoch < self.epoch_after:
                out.append(
                    "SPLIT BRAIN: resurrected leader granted an order "
                    "token at stale epoch %d (current epoch %d)"
                    % (epoch, self.epoch_after)
                )
        if self.epoch_after and self.resynced_epoch < self.epoch_after:
            out.append(
                "resurrected leader never adopted the new epoch "
                "(stuck at %d, cluster at %d)"
                % (self.resynced_epoch, self.epoch_after)
            )
        if len(set(self.leader_views.values())) > 1:
            out.append(
                "sites disagree on leadership at quiescence: %s"
                % {k: v for k, v in sorted(self.leader_views.items())}
            )
        if self.config.n_updates_after and self.revenant_acked == 0:
            out.append(
                "no update routed through the resurrected ex-leader "
                "was acknowledged"
            )
        if not self.converged:
            out.append("replicas did not reconverge after the failover")
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()

    def render(self) -> str:
        cfg = self.config
        lines = [
            "Failover run: seed=%d method=%s sites=%d (%d+%d+%d updates)"
            % (
                cfg.seed,
                cfg.method.upper(),
                cfg.n_sites,
                cfg.n_updates_before,
                cfg.n_updates_during,
                cfg.n_updates_after,
            ),
            "",
            "updates: %d acked, %d failed-or-unknown of %d attempted"
            % (
                sum(self.acked.values()),
                self.update_failures,
                sum(self.attempted.values()),
            ),
            "sequencer: %s (epoch %d) -> %s (epoch %d)"
            % (
                self.old_leader,
                self.epoch_before,
                self.new_leader or "(none)",
                self.epoch_after,
            ),
            "failover blackout: %.2fs (budget %.1fs)"
            % (self.blackout_seconds, cfg.blackout_limit),
        ]
        if self.stale_probe is not None:
            code, epoch = self.stale_probe
            lines.append(
                "resurrected-leader order probe: %s"
                % (code or ("granted at epoch %d" % epoch))
            )
        lines.append(
            "resurrected leader resynced to epoch %d, %d updates "
            "acked through it" % (self.resynced_epoch, self.revenant_acked)
        )
        lines.append(
            "reconverged: %s" % ("yes" if self.converged else "NO")
        )
        if self.artifacts:
            lines.append("artifacts: %s" % self.artifacts.get("dir", ""))
        lines.append("")
        problems = self.violations()
        if problems:
            lines.append("INVARIANT VIOLATIONS (%d):" % len(problems))
            lines.extend("  - " + p for p in problems)
        else:
            lines.append(
                "all invariants held: election fenced the old epoch, no "
                "acked-update loss, one leader per epoch, converged "
                "(%.1fs wall)" % self.wall_seconds
            )
        return "\n".join(lines)


async def run_elect(
    config: ElectConfig,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> ElectReport:
    """Execute one seeded failover scenario; never raises on invariant
    failure — inspect :meth:`ElectReport.violations`."""
    started = time.monotonic()
    cluster = LiveCluster(
        n_sites=config.n_sites,
        method=config.method,
        data_dir=data_dir,
        fsync=config.fsync,
        suspect_after=config.suspect_after,
        heartbeat_interval=config.heartbeat_interval,
    )
    report = ElectReport(config=config)
    rng = random.Random(config.seed)
    await cluster.start()
    try:
        names = list(cluster.names)
        leader = cluster.servers[names[0]].current_leader()
        report.old_leader = leader
        survivors = [n for n in names if n != leader]
        clients: Dict[str, LiveClient] = {}
        for name in names:
            clients[name] = await cluster.client(
                name, request_timeout=config.request_timeout
            )

        async def spray(count: int, sites: Sequence[str]) -> int:
            acked = 0
            for _ in range(count):
                site = rng.choice(list(sites))
                key = rng.choice(config.keys)
                report.attempted[key] = report.attempted.get(key, 0) + 1
                try:
                    await clients[site].increment(key, 1)
                except (
                    LiveETFailed,
                    ConnectionError,
                    OSError,
                    asyncio.TimeoutError,
                    RequestTimeout,
                ):
                    report.update_failures += 1
                else:
                    report.acked[key] = report.acked.get(key, 0) + 1
                    acked += 1
            return acked

        # Phase 1: warm up through the initial sequencer and settle,
        # so the victim's acked state is fully propagated when it dies.
        await spray(config.n_updates_before, names)
        await cluster.settle(timeout=config.settle_timeout)
        report.epoch_before = cluster.servers[survivors[0]].election.epoch

        # Phase 2: kill the sequencer.  The blackout window is crash to
        # first survivor-acked update: the survivor's order acquisition
        # spins while the detector escalates and the election runs, so
        # one increment call measures the whole outage end-to-end.
        await cluster.kill(leader)
        t0 = time.monotonic()
        probe_key = config.keys[0]
        deadline = t0 + config.blackout_limit + 5.0
        while True:
            report.attempted[probe_key] = (
                report.attempted.get(probe_key, 0) + 1
            )
            try:
                await clients[survivors[0]].increment(probe_key, 1)
            except (
                LiveETFailed,
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
                RequestTimeout,
            ):
                report.update_failures += 1
                report.blackout_seconds = time.monotonic() - t0
                if time.monotonic() >= deadline:
                    break
            else:
                report.acked[probe_key] = (
                    report.acked.get(probe_key, 0) + 1
                )
                report.blackout_seconds = time.monotonic() - t0
                break

        # The election must be visible in stats (epoch bumped, leader
        # moved) — poll a survivor.
        poll_deadline = time.monotonic() + config.elect_timeout
        while time.monotonic() < poll_deadline:
            stats = await clients[survivors[0]].stats()
            election = stats.get("election", {})
            if int(election.get("epoch", 0)) > report.epoch_before:
                report.epoch_after = int(election.get("epoch", 0))
                report.new_leader = str(election.get("leader") or "")
                break
            await asyncio.sleep(0.1)

        # Phase 3: the survivors keep writing under the new sequencer.
        await spray(config.n_updates_during, survivors)

        # Phase 4: resurrect the deposed leader and immediately ask it
        # for an order token.  Its durable election state predates the
        # failover, so before the epoch probe completes it is a
        # live replica that still *believes* it is the sequencer —
        # exactly the split-brain window the fencing must close: the
        # probe must be refused (or, once resynced, redirected), never
        # granted at the stale epoch.
        await cluster.restart(leader)
        await clients[leader].close()
        clients[leader] = await cluster.client(
            leader, request_timeout=config.request_timeout
        )
        try:
            reply = await clients[leader].request("order", timeout=5.0)
        except LiveETFailed as exc:
            report.stale_probe = (exc.code or "ERROR", -1)
        except (
            ConnectionError,
            OSError,
            asyncio.TimeoutError,
            RequestTimeout,
        ) as exc:
            report.stale_probe = (type(exc).__name__, -1)
        else:
            order = list(reply.get("order") or [])
            granted_epoch = int(order[1]) if len(order) > 1 else 0
            report.stale_probe = ("", granted_epoch)

        # The revenant must adopt the new epoch via its boot probe /
        # gossip, then serve as an ordinary replica.
        poll_deadline = time.monotonic() + config.elect_timeout
        while time.monotonic() < poll_deadline:
            stats = await clients[leader].stats()
            election = stats.get("election", {})
            epoch = int(election.get("epoch", 0))
            if epoch >= report.epoch_after and election.get("synced"):
                report.resynced_epoch = epoch
                break
            await asyncio.sleep(0.1)

        # Phase 5: updates routed through the ex-leader must reach the
        # new sequencer and ack.
        report.revenant_acked = await spray(
            config.n_updates_after, [leader]
        )
        await cluster.settle(timeout=config.settle_timeout)
        report.converged = await cluster.converged()
        values = await cluster.site_values()
        if values:
            any_site = next(iter(values.values()))
            report.final = {
                key: any_site.get(key, 0) for key in config.keys
            }
        for name in names:
            stats = await clients[name].stats()
            election = stats.get("election", {})
            report.leader_views[name] = (
                int(election.get("epoch", 0)),
                str(election.get("leader") or ""),
            )
        if artifacts_dir is not None:
            report.artifacts = await persist_cluster_artifacts(
                cluster, pathlib.Path(artifacts_dir)
            )
    finally:
        report.wall_seconds = time.monotonic() - started
        await cluster.stop()
    return report


def run_elect_sync(
    config: ElectConfig,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> ElectReport:
    """Blocking wrapper for CLI / benchmark use."""
    return asyncio.run(run_elect(config, data_dir, artifacts_dir))


# -- multi-region WAN scenario -------------------------------------------------


@dataclass(frozen=True)
class WanConfig:
    """One reproducible multi-region WAN scenario.

    Sites are split into regions joined by modeled WAN links
    (:data:`~repro.live.faults.WAN_INTER`: tens of milliseconds of
    propagation plus a bandwidth ceiling) with LAN-grade links inside
    each region.  Mid-run, the inter-region links are severed — a full
    region partition — and the harness checks the paper's availability
    split on *both* sides: epsilon-bounded reads keep answering with
    honest inconsistency accounting, an ``epsilon = 0`` read refuses
    fast with the typed ``UNAVAILABLE`` code, and asynchronous writes
    keep acking locally.  After the heal, everything must reconverge.
    """

    seed: int = 0
    method: str = "commu"
    #: sites per region, assigned in name order (site0, site1, ...).
    region_sites: Tuple[int, ...] = (2, 2)
    n_updates_before: int = 40
    #: updates *per region* while partitioned.
    n_updates_during: int = 20
    n_updates_after: int = 20
    keys: Tuple[str, ...] = ("acct0", "acct1", "acct2", "acct3")
    #: budget for the degraded bounded probe (generous on purpose —
    #: availability, not precision, is under test).
    bounded_epsilon: int = 10_000
    fsync: bool = False
    heartbeat_interval: float = 0.15
    suspect_after: float = 0.6
    request_timeout: float = 20.0
    settle_timeout: float = 60.0
    #: the strict probe must refuse within this bound (fail fast, not
    #: hang until some distant timeout).
    strict_probe_limit: float = 1.0

    @property
    def n_sites(self) -> int:
        return sum(self.region_sites)


@dataclass
class WanReport:
    """What one WAN run observed, and whether the invariants held."""

    config: WanConfig
    regions: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    acked: Dict[str, int] = field(default_factory=dict)
    attempted: Dict[str, int] = field(default_factory=dict)
    final: Dict[str, Any] = field(default_factory=dict)
    update_failures: int = 0
    #: per-region strict (epsilon=0) probe during the partition:
    #: region -> (elapsed seconds, error code; "" means it answered).
    strict_probes: Dict[str, Tuple[float, str]] = field(
        default_factory=dict
    )
    #: per-region bounded probe: region -> reported inconsistency
    #: (None means it failed to answer).
    bounded_probes: Dict[str, Optional[int]] = field(default_factory=dict)
    #: updates acked in each region while partitioned.
    partition_acked: Dict[str, int] = field(default_factory=dict)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    converged: bool = False
    wall_seconds: float = 0.0
    artifacts: Dict[str, str] = field(default_factory=dict)

    def violations(self) -> List[str]:
        out: List[str] = []
        for key in sorted(set(self.acked) | set(self.final)):
            acked = self.acked.get(key, 0)
            attempted = self.attempted.get(key, 0)
            got = self.final.get(key, 0)
            if got < acked:
                out.append(
                    "acked update lost across the region partition: %s "
                    "converged to %s but %d increments were acknowledged"
                    % (key, got, acked)
                )
            if got > attempted:
                out.append(
                    "update double-applied: %s converged to %s but only "
                    "%d increments were attempted" % (key, got, attempted)
                )
        for region in sorted(self.regions):
            probe = self.strict_probes.get(region)
            if probe is None:
                out.append(
                    "no strict probe recorded in region %s" % region
                )
            else:
                elapsed, code = probe
                if not code:
                    out.append(
                        "epsilon=0 read answered in partitioned region "
                        "%s (must refuse)" % region
                    )
                elif elapsed > self.config.strict_probe_limit:
                    out.append(
                        "epsilon=0 refusal in region %s took %.2fs "
                        "(budget %.1fs)"
                        % (region, elapsed, self.config.strict_probe_limit)
                    )
            if self.bounded_probes.get(region) is None:
                out.append(
                    "bounded read went unavailable in partitioned "
                    "region %s" % region
                )
            if (
                self.config.n_updates_during
                and self.partition_acked.get(region, 0) == 0
            ):
                out.append(
                    "no update acked in region %s during the partition "
                    "(asynchronous writes must stay live)" % region
                )
        if not self.fault_counts.get("delayed"):
            out.append(
                "WAN latency model never engaged (no delayed frames)"
            )
        if not self.converged:
            out.append("regions did not reconverge after the heal")
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()

    def render(self) -> str:
        cfg = self.config
        lines = [
            "WAN run: seed=%d method=%s regions=%s (%d+%dx%d+%d updates)"
            % (
                cfg.seed,
                cfg.method.upper(),
                "/".join(str(n) for n in cfg.region_sites),
                cfg.n_updates_before,
                len(self.regions) or len(cfg.region_sites),
                cfg.n_updates_during,
                cfg.n_updates_after,
            ),
            "",
            "updates: %d acked, %d failed-or-unknown of %d attempted"
            % (
                sum(self.acked.values()),
                self.update_failures,
                sum(self.attempted.values()),
            ),
        ]
        for region in sorted(self.regions):
            probe = self.strict_probes.get(region)
            strict = "(missing)"
            if probe is not None:
                elapsed, code = probe
                strict = "%s in %.0f ms" % (
                    code or "(answered)", elapsed * 1e3
                )
            bounded = self.bounded_probes.get(region)
            lines.append(
                "region %s partitioned: strict probe %s, bounded probe "
                "%s, %d updates acked"
                % (
                    region,
                    strict,
                    "inconsistency=%s" % bounded
                    if bounded is not None
                    else "UNAVAILABLE",
                    self.partition_acked.get(region, 0),
                )
            )
        lines.append(
            "faults injected: "
            + ", ".join(
                "%s=%d" % (k, v)
                for k, v in sorted(self.fault_counts.items())
            )
        )
        lines.append(
            "reconverged: %s" % ("yes" if self.converged else "NO")
        )
        if self.artifacts:
            lines.append("artifacts: %s" % self.artifacts.get("dir", ""))
        lines.append("")
        problems = self.violations()
        if problems:
            lines.append("INVARIANT VIOLATIONS (%d):" % len(problems))
            lines.extend("  - " + p for p in problems)
        else:
            lines.append(
                "all invariants held: both regions stayed live within "
                "epsilon, strict reads refused honestly, reconverged "
                "(%.1fs wall)" % self.wall_seconds
            )
        return "\n".join(lines)


async def run_wan(
    config: WanConfig,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> WanReport:
    """Execute one seeded WAN scenario; never raises on invariant
    failure — inspect :meth:`WanReport.violations`."""
    started = time.monotonic()
    plan = FaultPlan(config.seed)
    cluster = LiveCluster(
        n_sites=config.n_sites,
        method=config.method,
        data_dir=data_dir,
        faults=plan,
        fsync=config.fsync,
        suspect_after=config.suspect_after,
        heartbeat_interval=config.heartbeat_interval,
    )
    report = WanReport(config=config)
    rng = random.Random(config.seed)
    names = list(cluster.names)
    regions: Dict[str, Tuple[str, ...]] = {}
    cursor = 0
    for i, count in enumerate(config.region_sites):
        regions["region%d" % i] = tuple(names[cursor : cursor + count])
        cursor += count
    report.regions = regions
    plan.set_regions(regions)
    await cluster.start()
    try:
        clients: Dict[str, LiveClient] = {}
        for name in names:
            clients[name] = await cluster.client(
                name, request_timeout=config.request_timeout
            )

        async def spray(count: int, sites: Sequence[str]) -> int:
            acked = 0
            for _ in range(count):
                site = rng.choice(list(sites))
                key = rng.choice(config.keys)
                report.attempted[key] = report.attempted.get(key, 0) + 1
                try:
                    await clients[site].increment(key, 1)
                except (
                    LiveETFailed,
                    ConnectionError,
                    OSError,
                    asyncio.TimeoutError,
                    RequestTimeout,
                ):
                    report.update_failures += 1
                else:
                    report.acked[key] = report.acked.get(key, 0) + 1
                    acked += 1
            return acked

        # Phase 1: cross-region steady state over the modeled WAN.
        await spray(config.n_updates_before, names)
        await cluster.settle(timeout=config.settle_timeout)

        # Phase 2: sever every inter-region link and let the failure
        # detectors age the remote peers out.
        plan.partition(plan.region_groups())
        await asyncio.sleep(
            config.suspect_after + 3 * config.heartbeat_interval
        )
        probe_key = config.keys[0]
        for region, sites in sorted(regions.items()):
            probe_site = sites[0]
            t0 = time.monotonic()
            try:
                await clients[probe_site].read(
                    probe_key, Consistency.STRICT, timeout=5.0
                )
            except LiveETFailed as exc:
                report.strict_probes[region] = (
                    time.monotonic() - t0,
                    exc.code,
                )
            except (ConnectionError, OSError) as exc:
                report.strict_probes[region] = (
                    time.monotonic() - t0,
                    type(exc).__name__,
                )
            else:
                report.strict_probes[region] = (
                    time.monotonic() - t0, ""
                )
            try:
                outcome = await clients[probe_site].query(
                    [probe_key],
                    EpsilonSpec(import_limit=config.bounded_epsilon),
                    timeout=5.0,
                )
            except (LiveETFailed, ConnectionError, OSError):
                report.bounded_probes[region] = None
            else:
                report.bounded_probes[region] = outcome["inconsistency"]
            # Asynchronous writes must keep acking region-locally.
            report.partition_acked[region] = await spray(
                config.n_updates_during, list(sites)
            )

        # Phase 3: heal and reconverge across the WAN.
        plan.heal_all()
        await spray(config.n_updates_after, names)
        await cluster.settle(timeout=config.settle_timeout)
        report.converged = await cluster.converged()
        values = await cluster.site_values()
        if values:
            any_site = next(iter(values.values()))
            report.final = {
                key: any_site.get(key, 0) for key in config.keys
            }
        if artifacts_dir is not None:
            report.artifacts = await persist_cluster_artifacts(
                cluster, pathlib.Path(artifacts_dir)
            )
    finally:
        report.fault_counts = dict(plan.counts)
        report.wall_seconds = time.monotonic() - started
        await cluster.stop()
    return report


def run_wan_sync(
    config: WanConfig,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> WanReport:
    """Blocking wrapper for CLI / benchmark use."""
    return asyncio.run(run_wan(config, data_dir, artifacts_dir))


# -- COMPE saga / compensation-storm scenario ----------------------------------


@dataclass(frozen=True)
class SagaConfig:
    """One reproducible COMPE saga scenario.

    The victim is the last site; it is crashed (``wipe=True``
    destroys its disk — including its compensation log — forcing a
    snapshot-install rejoin whose COMPE tables come entirely from the
    donor's engine checkpoint) in the middle of the abort storm, while
    a survivor keeps deciding sagas.  The network is clean on purpose:
    every submitted update must ack, so the final store is predicted
    *exactly* and any lost or double-applied compensation shows up as
    an off-by-amount, not a tolerance miss.
    """

    seed: int = 0
    n_sites: int = 3
    method: str = "compe"
    #: plain (auto-commit) COMPE updates before the sagas.
    n_background: int = 24
    #: sagas submitted, each ``steps_per_saga`` increments.
    n_sagas: int = 10
    steps_per_saga: int = 3
    #: fraction of sagas aborted (the compensation storm).
    abort_fraction: float = 0.5
    keys: Tuple[str, ...] = ("acct0", "acct1", "acct2", "acct3")
    #: crash the victim mid-storm; ``wipe`` also destroys its disk.
    crash: bool = True
    wipe: bool = True
    fsync: bool = False
    heartbeat_interval: float = 0.15
    suspect_after: float = 0.6
    request_timeout: float = 20.0
    settle_timeout: float = 60.0
    rejoin_timeout: float = 30.0


@dataclass
class SagaReport:
    """What one saga run observed, and whether the invariants held."""

    config: SagaConfig
    #: exact predicted converged value per key (committed effects only).
    expected: Dict[str, int] = field(default_factory=dict)
    final: Dict[str, Any] = field(default_factory=dict)
    attempted: Dict[str, int] = field(default_factory=dict)
    update_failures: int = 0
    sagas_committed: int = 0
    sagas_aborted: int = 0
    #: saga step tids reported compensated by abort decides.
    steps_compensated: int = 0
    #: per-replica compensations applied (engine counters), summed.
    compensations_total: int = 0
    #: per-replica compensation-log lifetime appends, summed.
    compensation_log_records_total: int = 0
    #: tids the abort-decide re-issue decided *again* (must be zero).
    reissue_decided: int = 0
    #: per-replica compensation-counter movement across the re-issue
    #: (must be zero everywhere — replay is idempotent).
    reissue_compensation_delta: int = 0
    #: the abort=True probe: (error code, tids reported compensated).
    honest_probe: Optional[Tuple[str, Tuple[str, ...]]] = None
    #: anomalies caught while driving (mismatched decide replies).
    anomalies: List[str] = field(default_factory=list)
    #: snapshot installs the wiped victim performed while rejoining.
    catchup_installs: int = 0
    converged: bool = False
    wall_seconds: float = 0.0
    artifacts: Dict[str, str] = field(default_factory=dict)

    def violations(self) -> List[str]:
        out: List[str] = list(self.anomalies)
        for key in sorted(set(self.expected) | set(self.final)):
            want = self.expected.get(key, 0)
            got = self.final.get(key, 0)
            if got != want:
                out.append(
                    "store mismatch: %s converged to %s, exact "
                    "prediction from committed effects is %s (lost or "
                    "double-applied update/compensation)"
                    % (key, got, want)
                )
        if self.update_failures:
            out.append(
                "%d updates failed on a clean network (every submitted "
                "update must ack)" % self.update_failures
            )
        if self.sagas_aborted and self.compensations_total == 0:
            out.append(
                "silent zero: %d sagas aborted but no replica counted "
                "a single compensation" % self.sagas_aborted
            )
        if self.sagas_aborted and self.steps_compensated == 0:
            out.append(
                "abort decides reported no compensated step tids"
            )
        if self.reissue_decided:
            out.append(
                "re-issued abort decides decided %d tid(s) again — "
                "decisions are not idempotent" % self.reissue_decided
            )
        if self.reissue_compensation_delta:
            out.append(
                "compensation counters moved by %d across the decide "
                "re-issue — a compensation was applied twice"
                % self.reissue_compensation_delta
            )
        if self.honest_probe is None:
            out.append("abort=True probe never ran")
        else:
            code, tids = self.honest_probe
            if code != "COMPENSATED":
                out.append(
                    "abort=True update failed with %r, not the typed "
                    "COMPENSATED code" % code
                )
            if not tids:
                out.append(
                    "COMPENSATED failure did not name the undone tid(s)"
                )
        if self.config.crash and self.config.wipe and (
            self.catchup_installs < 1
        ):
            out.append(
                "wiped replica rejoined without a snapshot install"
            )
        if not self.converged:
            out.append(
                "replicas did not converge after the compensation storm"
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()

    def render(self) -> str:
        cfg = self.config
        lines = [
            "Saga run: seed=%d sites=%d (%d background updates, %d "
            "sagas x %d steps%s)"
            % (
                cfg.seed,
                cfg.n_sites,
                cfg.n_background,
                cfg.n_sagas,
                cfg.steps_per_saga,
                ", %s mid-storm"
                % ("disk-wipe crash" if cfg.wipe else "crash/restart")
                if cfg.crash
                else "",
            ),
            "",
            "sagas: %d committed, %d aborted (%d step tids compensated)"
            % (
                self.sagas_committed,
                self.sagas_aborted,
                self.steps_compensated,
            ),
            "compensations applied across replicas: %d "
            "(%d compensation-log records)"
            % (
                self.compensations_total,
                self.compensation_log_records_total,
            ),
            "idempotence re-issue: %d re-decided, counter delta %d"
            % (self.reissue_decided, self.reissue_compensation_delta),
        ]
        if self.honest_probe is not None:
            code, tids = self.honest_probe
            lines.append(
                "abort=True probe: %s (undone: %s)"
                % (code or "(committed?)", ", ".join(tids) or "none")
            )
        if self.config.crash:
            lines.append(
                "victim rejoin: %d snapshot install(s)"
                % self.catchup_installs
            )
        lines.append(
            "converged to exact prediction: %s"
            % ("yes" if self.converged and not self.violations() else "NO")
        )
        if self.artifacts:
            lines.append("artifacts: %s" % self.artifacts.get("dir", ""))
        lines.append("")
        problems = self.violations()
        if problems:
            lines.append("INVARIANT VIOLATIONS (%d):" % len(problems))
            lines.extend("  - " + p for p in problems)
        else:
            lines.append(
                "all invariants held: exact convergence through the "
                "mid-storm crash, idempotent compensation replay, "
                "honest COMPENSATED reporting (%.1fs wall)"
                % self.wall_seconds
            )
        return "\n".join(lines)


async def run_saga(
    config: SagaConfig,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> SagaReport:
    """Execute one seeded saga scenario; never raises on invariant
    failure — inspect :meth:`SagaReport.violations`."""
    started = time.monotonic()
    cluster = LiveCluster(
        n_sites=config.n_sites,
        method=config.method,
        data_dir=data_dir,
        fsync=config.fsync,
        suspect_after=config.suspect_after,
        heartbeat_interval=config.heartbeat_interval,
    )
    report = SagaReport(config=config)
    rng = random.Random(config.seed)
    expected: Dict[str, int] = {key: 0 for key in config.keys}
    await cluster.start()
    try:
        names = list(cluster.names)
        victim = names[-1]
        survivors = [n for n in names if n != victim]
        clients: Dict[str, LiveClient] = {}
        for name in names:
            clients[name] = await cluster.client(
                name, request_timeout=config.request_timeout
            )

        async def one_update(site, key, amount, saga=None):
            report.attempted[key] = report.attempted.get(key, 0) + 1
            try:
                frame = await clients[site].update(
                    [IncrementOp(key, amount)], saga=saga
                )
            except (
                LiveETFailed,
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
                RequestTimeout,
            ):
                report.update_failures += 1
                return None
            return frame.get("tid")

        # Phase 1: background auto-committed COMPE updates everywhere.
        for _ in range(config.n_background):
            site = rng.choice(names)
            key = rng.choice(config.keys)
            amount = rng.randint(1, 5)
            if await one_update(site, key, amount) is not None:
                expected[key] += amount

        # Phase 2: the sagas.  Every step is tagged with its saga id
        # and stays undecided; effects land optimistically everywhere.
        sagas: Dict[str, List[Tuple[str, str, int]]] = {}
        outcomes: Dict[str, str] = {}
        for i in range(config.n_sagas):
            saga_id = "saga-%d" % i
            outcomes[saga_id] = (
                "abort"
                if rng.random() < config.abort_fraction
                else "commit"
            )
            members: List[Tuple[str, str, int]] = []
            for _ in range(config.steps_per_saga):
                site = rng.choice(names)
                key = rng.choice(config.keys)
                amount = rng.randint(1, 5)
                tid = await one_update(site, key, amount, saga=saga_id)
                if tid is not None:
                    members.append((tid, key, amount))
            sagas[saga_id] = members
        # Committed sagas' effects are the only saga effects that may
        # survive to the converged store.
        for saga_id, members in sagas.items():
            if outcomes[saga_id] == "commit":
                for _, key, amount in members:
                    expected[key] += amount
        # Every step must be visible at every site before deciding —
        # decisions consult the decider's own saga-membership table.
        await cluster.settle(timeout=config.settle_timeout)

        def check_decide_reply(saga_id, reply, want_outcome):
            members = {tid for tid, _, _ in sagas[saga_id]}
            decided = set(reply.get("decided", ()))
            if decided != members:
                report.anomalies.append(
                    "decide(%s, %s) decided %s, expected exactly the "
                    "member tids %s"
                    % (
                        saga_id,
                        want_outcome,
                        sorted(decided),
                        sorted(members),
                    )
                )
            if want_outcome == "abort":
                compensated = set(reply.get("compensated", ()))
                if compensated != members:
                    report.anomalies.append(
                        "abort of %s compensated %s, expected %s"
                        % (saga_id, sorted(compensated), sorted(members))
                    )
                report.steps_compensated += len(compensated)

        # Phase 3: decide roughly half the sagas, crash the victim in
        # the middle of the storm, keep deciding at a survivor.
        order = sorted(sagas)
        rng.shuffle(order)
        midpoint = len(order) // 2
        for saga_id in order[:midpoint]:
            outcome = outcomes[saga_id]
            reply = await clients[survivors[0]].decide(
                outcome, saga=saga_id
            )
            check_decide_reply(saga_id, reply, outcome)
        if config.crash:
            if config.wipe:
                await cluster.wipe(victim)
            else:
                await cluster.kill(victim)
        for saga_id in order[midpoint:]:
            outcome = outcomes[saga_id]
            reply = await clients[survivors[0]].decide(
                outcome, saga=saga_id
            )
            check_decide_reply(saga_id, reply, outcome)
        report.sagas_aborted = sum(
            1 for o in outcomes.values() if o == "abort"
        )
        report.sagas_committed = len(outcomes) - report.sagas_aborted

        # Phase 4: heal.  A wiped victim must rejoin by snapshot
        # install (its compensation log is gone — the donor's engine
        # checkpoint is the only source of its COMPE tables); a merely
        # crashed one replays decisions from its durable channels.
        if config.crash:
            await cluster.restart(victim)
            if config.wipe:
                await cluster.wait_caught_up(
                    victim, timeout=config.rejoin_timeout
                )
            await clients[victim].close()
            clients[victim] = await cluster.client(
                victim, request_timeout=config.request_timeout
            )
        await cluster.settle(timeout=config.settle_timeout)
        if config.crash:
            report.catchup_installs = cluster.servers[
                victim
            ].catchup_installs

        # Phase 5: idempotence probe.  Re-issue every abort decide —
        # at a survivor AND at the healed victim — and require that
        # nothing is decided again and no compensation counter moves.
        before = {
            name: server.engine.compensation_count
            for name, server in cluster.servers.items()
        }
        for saga_id in sorted(sagas):
            if outcomes[saga_id] != "abort":
                continue
            for site in (survivors[0], victim if config.crash else names[0]):
                reply = await clients[site].decide(
                    "abort", saga=saga_id
                )
                report.reissue_decided += len(reply.get("decided", ()))
        await cluster.settle(timeout=config.settle_timeout)
        report.reissue_compensation_delta = sum(
            abs(server.engine.compensation_count - before[name])
            for name, server in cluster.servers.items()
        )

        # Phase 6: honest typed reporting — an abort=True update must
        # surface COMPENSATED naming the undone tid (net effect zero,
        # so ``expected`` is untouched).
        probe_key = config.keys[0]
        report.attempted[probe_key] = (
            report.attempted.get(probe_key, 0) + 1
        )
        try:
            await clients[survivors[0]].update(
                [IncrementOp(probe_key, 7)], abort=True
            )
        except LiveETFailed as exc:
            report.honest_probe = (exc.code, exc.compensated_tids)
        else:
            report.honest_probe = ("", ())

        # Phase 7: exact convergence.
        await cluster.settle(timeout=config.settle_timeout)
        report.converged = await cluster.converged()
        values = await cluster.site_values()
        if values:
            any_site = next(iter(values.values()))
            report.final = {
                key: any_site.get(key, 0) for key in config.keys
            }
        report.expected = dict(expected)
        report.compensations_total = sum(
            server.engine.compensation_count
            for server in cluster.servers.values()
        )
        report.compensation_log_records_total = sum(
            server.engine.compensation_log.records_total
            for server in cluster.servers.values()
            if getattr(server.engine, "compensation_log", None) is not None
        )
        if artifacts_dir is not None:
            report.artifacts = await persist_cluster_artifacts(
                cluster, pathlib.Path(artifacts_dir)
            )
    finally:
        report.wall_seconds = time.monotonic() - started
        await cluster.stop()
    return report


def run_saga_sync(
    config: SagaConfig,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> SagaReport:
    """Blocking wrapper for CLI / benchmark use."""
    return asyncio.run(run_saga(config, data_dir, artifacts_dir))
