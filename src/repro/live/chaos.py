"""Chaos harness: seeded fault schedules against a live cluster.

Turns the paper's availability argument (experiment E9) and its two
standing guarantees — update ETs stay 1SR, replicas converge at
quiescence — into empirical results on the live runtime.  One
:class:`Run` owns what every scenario repeats: it builds, boots and
stops the cluster (a :class:`LiveCluster`, or a :class:`ShardedCluster`
with a router), holds a client per site, the seeded ``rng`` and the
*update ledger* (per key: increments attempted / acknowledged, plus
how many failed or went unanswered), and offers the actions a
scenario is written in — ``update`` / ``spray``, ``partition`` /
``heal``, ``crash`` / ``restart``, ``probe_degraded``, ``wait_for``,
``settle`` — and ``finish``, which settles, compares replicas, holds
the ledger against the final state (``acked <= final <= attempted``
per key; equality for the saga scenario), cross-checks the servers'
own traces and persists artifacts.  A scenario is an entry of
:data:`SCENARIOS`: a config, a :class:`Report` subclass declaring only
its own fields and findings, and an ``async drive(run)`` holding only
its phases.  :func:`run_scenario` dispatches on the config's type and
never raises on an invariant failure — inspect
:meth:`Report.violations`.

The six scenarios — ``faults``, ``rejoin``, ``migrate``, ``elect``,
``wan``, ``saga`` — are tabulated (cluster shape, phases, findings,
CLI flags) in ``docs/LIVE.md``, "The chaos harness"; a test keeps that
table equal to :data:`SCENARIOS` and the CLI's flag table::

    python -m repro chaos --seed 7
    python -m repro chaos --scenario saga --seed 7 --artifacts out/
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import random
import time
from dataclasses import dataclass, field, fields
from typing import Any, Awaitable, Callable, Dict, Iterable, List, Optional
from typing import Sequence, Set, Tuple

from ..consistency import Consistency
from ..core.operations import IncrementOp
from ..core.transactions import EpsilonSpec
from ..obs.trace import dump_events_jsonl, merge_traces
from .client import LiveClient, LiveETFailed
from .cluster import LiveCluster, ShardedCluster
from .faults import FaultPlan, LinkFaults
from .shard import key_shard

__all__ = [
    "ABORT_FRACTION",
    "BLACKOUT_LIMIT",
    "ChaosConfig",
    "ChaosReport",
    "ELECT_HEARTBEAT_INTERVAL",
    "ELECT_SUSPECT_AFTER",
    "ElectConfig",
    "ElectReport",
    "MigrateConfig",
    "MigrateReport",
    "RejoinConfig",
    "RejoinReport",
    "Report",
    "Run",
    "SCENARIOS",
    "STRICT_REFUSAL_LIMIT",
    "SagaConfig",
    "SagaReport",
    "WanConfig",
    "WanReport",
    "persist_cluster_artifacts",
    "run_scenario",
    "run_scenario_sync",
]

#: how a request can fail without the run being wrong: a typed refusal,
#: a dead or re-listening socket (``ConnectionError`` and the client's
#: ``RequestTimeout`` are ``OSError``s), an expired ``wait_for``.
FAILURES = (LiveETFailed, OSError, asyncio.TimeoutError)

KEYS: Tuple[str, ...] = ("acct0", "acct1", "acct2", "acct3")
REQUEST_TIMEOUT = 20.0
SETTLE_TIMEOUT = 60.0
#: wall-clock budget for a wiped replica's snapshot install on restart.
REJOIN_TIMEOUT = 30.0
#: wall-clock budget for a shard cutover, and the router's patience
#: with requests caught mid-migration.
MIGRATION_TIMEOUT = 30.0
#: failure-detector tuning of the clusters under test.
HEARTBEAT_INTERVAL = 0.15
SUSPECT_AFTER = 0.6
#: a partitioned ``epsilon = 0`` read must refuse within this many
#: seconds — fail fast, not hang until some distant timeout.
STRICT_REFUSAL_LIMIT = 1.0
#: budget of the degraded bounded probe (generous on purpose —
#: availability, not precision, is under test).
BOUNDED_PROBE_EPSILON = 10_000


# -- the report ---------------------------------------------------------------


@dataclass
class Report:
    """What one run observed, and whether the invariants held.

    The base holds what :class:`Run` fills for every scenario; a
    subclass adds its own observations, :meth:`findings` and
    :meth:`lines`, and the strings that name it.
    """

    config: Any
    #: the update ledger, per key, in units of increment.
    acked: Dict[str, int] = field(default_factory=dict)
    attempted: Dict[str, int] = field(default_factory=dict)
    update_failures: int = 0
    final: Dict[str, Any] = field(default_factory=dict)
    converged: bool = False
    #: every site's store and ``stats``, kept when the run diverged:
    #: the ledger is then held against each distinct state, and the
    #: render shows who applied what and who leads.
    site_final: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    site_stats: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: what the servers *recorded*: bounded trace query events whose
    #: inconsistency exceeded their limit ...
    trace_epsilon_breaches: List[Tuple[float, int]] = field(
        default_factory=list
    )
    #: ... and degraded gauge flips (0 -> 1) across all replica traces —
    #: a partition must be *visible* to an operator, not just felt.
    degraded_flips: int = 0
    #: partitions held past the failure detector's patience.
    partitions_held: int = 0
    #: paths of persisted artifacts (when an artifacts dir was given).
    artifacts: Dict[str, str] = field(default_factory=dict)
    wall_seconds: float = 0.0

    #: ``str.format`` template over the config's fields.
    title = "Run"
    #: where this scenario could have lost an update (" across the ...").
    across = ""
    #: True holds the ledger with equality: ``acked`` is then the exact
    #: prediction of the converged store.
    exact = False
    diverged = "replicas did not converge"
    held = "no acked-update loss, converged"

    def findings(self) -> List[str]:
        """The scenario's own broken invariants."""
        return []

    def ledger_findings(self) -> List[str]:
        """The converged state must be explained by the updates: per
        key, every acknowledged increment is in it and nothing beyond
        the attempted ones is."""
        states: List[Tuple[str, Dict[str, Any]]] = [("", self.final)]
        if self.site_final:
            grouped: Dict[str, List[str]] = {}
            for site, values in sorted(self.site_final.items()):
                state_id = repr(sorted(values.items()))
                grouped.setdefault(state_id, []).append(site)
            states = [
                (" (at %s)" % ", ".join(sites), self.site_final[sites[0]])
                for sites in grouped.values()
            ]
        out: List[str] = []
        for where, state in states:
            for key in sorted(set(self.acked) | set(state)):
                acked = self.acked.get(key, 0)
                attempted = self.attempted.get(key, 0)
                got = state.get(key, 0)
                if self.exact:
                    if got != acked:
                        out.append(
                            "store mismatch: %s converged to %s, exact "
                            "prediction from committed effects is %s "
                            "(lost or double-applied update/compensation)"
                            "%s" % (key, got, acked, where)
                        )
                    continue
                if got < acked:
                    out.append(
                        "acked update lost%s: %s converged to %s but %d "
                        "increments were acknowledged%s"
                        % (self.across, key, got, acked, where)
                    )
                if got > attempted:
                    out.append(
                        "update double-applied: %s converged to %s but "
                        "only %d increments were attempted%s"
                        % (key, got, attempted, where)
                    )
        return out

    def violations(self) -> List[str]:
        """Every broken invariant, as human-readable findings."""
        out = self.ledger_findings()
        for limit, seen in self.trace_epsilon_breaches:
            out.append(
                "server trace shows epsilon breach: bounded query "
                "(limit=%s) recorded inconsistency %d" % (limit, seen)
            )
        out.extend(self.findings())
        if self.partitions_held and not self.degraded_flips:
            out.append(
                "partition never visible to an operator: 0 degraded "
                "flips across %d partition(s) held past the detector"
                % self.partitions_held
            )
        if not self.converged:
            out.append(self.diverged)
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()

    def render(self) -> str:
        lines = [
            self.title.format(**getattr(self.config, "__dict__", {})),
            "",
            "updates: %d acked, %d failed-or-unknown of %d attempted"
            % (
                sum(self.acked.values()),
                self.update_failures,
                sum(self.attempted.values()),
            ),
        ]
        # The scenario's own observations: the fields its report adds.
        for f in fields(self):
            if f.name not in Report.__dataclass_fields__:
                value = _shown(getattr(self, f.name))
                lines.append("%s: %s" % (f.name.replace("_", " "), value))
        if self.fault_counts:
            lines.append(
                "faults injected: "
                + ", ".join(
                    "%s=%d" % (k, v)
                    for k, v in sorted(self.fault_counts.items())
                )
            )
        if self.degraded_flips:
            lines.append(
                "degraded gauge flips observed: %d" % self.degraded_flips
            )
        lines.append("converged: %s" % ("yes" if self.converged else "NO"))
        for site, stats in sorted(self.site_stats.items()):
            election = stats.get("election", {})
            lines.append(
                "  %s: %s applied=%s backlog=%s election=(epoch %s, "
                "leader %s, base %s)"
                % (
                    site,
                    self.site_final.get(site, ""),
                    stats.get("applied"),
                    stats.get("outbound_backlog"),
                    election.get("epoch"),
                    election.get("leader"),
                    election.get("base"),
                )
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
                "all invariants held: %s (%.1fs wall)"
                % (self.held, self.wall_seconds)
            )
        return "\n".join(lines)


def _shown(value: Any) -> str:
    """A report value on one line: floats to the millisecond."""
    if isinstance(value, float):
        return "%.3f" % value
    if isinstance(value, dict):
        return "{%s}" % ", ".join(
            "%s: %s" % (k, _shown(v)) for k, v in sorted(value.items())
        )
    if isinstance(value, (list, tuple)):
        return "(%s)" % ", ".join(_shown(v) for v in value)
    return str(value)


# -- the harness --------------------------------------------------------------


class Run:
    """One scenario run: the cluster, a client per site, the seeded
    ``rng``, the update ledger (kept on ``report``) and the fault
    actions.  ``start`` ... ``finish`` inside ``try``, ``stop`` in
    ``finally`` — :func:`run_scenario` is exactly that."""

    def __init__(
        self,
        report: Report,
        seed: int = 0,
        data_dir: Optional[pathlib.Path] = None,
        artifacts_dir: Optional[pathlib.Path] = None,
    ) -> None:
        self.report = report
        self.rng = random.Random(seed)
        self.data_dir = data_dir
        self.artifacts_dir = artifacts_dir
        self.started = time.monotonic()
        self.cluster: Any = None
        self.names: List[str] = []
        self.clients: Dict[str, LiveClient] = {}
        #: a sharded cluster's update sender (``spray`` without sites).
        self.router: Any = None
        self.keys: Tuple[str, ...] = KEYS
        self.request_timeout = REQUEST_TIMEOUT
        self._wiped: Set[str] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(
        self,
        keys: Tuple[str, ...] = KEYS,
        request_timeout: float = REQUEST_TIMEOUT,
        **shape: Any,
    ) -> None:
        """Build and boot the cluster ``shape`` describes — the keyword
        arguments of :class:`LiveCluster`, or of :class:`ShardedCluster`
        when ``n_shards`` is among them — then dial a client per site
        (sharded: open the router)."""
        self.keys = keys
        self.request_timeout = request_timeout
        shape.setdefault("heartbeat_interval", HEARTBEAT_INTERVAL)
        shape.setdefault("suspect_after", SUSPECT_AFTER)
        build = ShardedCluster if "n_shards" in shape else LiveCluster
        self.cluster = build(data_dir=self.data_dir, **shape)
        await self.cluster.start()
        if build is ShardedCluster:
            self.router = self.cluster.router(
                migration_wait=MIGRATION_TIMEOUT,
                client_options={"request_timeout": request_timeout},
            )
            return
        self.names = list(self.cluster.names)
        for name in self.names:
            await self.redial(name)

    async def redial(self, site: str) -> None:
        """(Re)connect the site's client: a restarted replica listens
        on a fresh port."""
        if site in self.clients:
            await self.clients[site].close()
        self.clients[site] = await self.cluster.client(
            site, request_timeout=self.request_timeout
        )

    async def stop(self) -> None:
        if self.cluster is not None:
            await self.cluster.stop()

    # -- the ledger ----------------------------------------------------------

    async def update(
        self, sender: Any, key: str, amount: int = 1, **options: Any
    ) -> Optional[Dict[str, Any]]:
        """One increment through ``sender`` (a :class:`LiveClient` or
        the router), entered in the ledger.  Returns the reply, or
        ``None`` when it failed — or went unanswered, so may still
        have applied: ``attempted`` counts it either way."""
        report = self.report
        report.attempted[key] = report.attempted.get(key, 0) + amount
        try:
            reply = await sender.update(
                [IncrementOp(key, amount)], **options
            )
        except FAILURES:
            report.update_failures += 1
            return None
        report.acked[key] = report.acked.get(key, 0) + amount
        return reply

    async def spray(
        self,
        count: int,
        sites: Optional[Iterable[str]] = None,
        pace: float = 0.0,
    ) -> int:
        """``count`` increments of seeded-random keys, each at a
        seeded-random one of ``sites`` (through the router when there
        are none), ``pace`` seconds apart; returns how many acked."""
        acked = 0
        for _ in range(count):
            sender = self.router
            if sites is not None:
                sender = self.clients[self.rng.choice(list(sites))]
            key = self.rng.choice(self.keys)
            if await self.update(sender, key) is not None:
                acked += 1
            if pace:
                await asyncio.sleep(self.rng.uniform(0.5, 1.0) * pace)
        return acked

    # -- fault actions -------------------------------------------------------

    async def partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Sever every inter-group link, then hold the partition until
        the failure detectors have aged the severed peers out."""
        self.cluster.partition(groups)
        await asyncio.sleep(
            self.cluster.suspect_after
            + 3 * self.cluster.heartbeat_interval
        )
        self.report.partitions_held += 1

    def heal(self) -> None:
        """End every partition; rate-based link faults stay on."""
        self.cluster.heal()

    async def crash(self, site: str, wipe: bool = False) -> None:
        """Kill one replica; ``wipe`` also destroys its disk."""
        if wipe:
            await self.cluster.wipe(site)
            self._wiped.add(site)
        else:
            await self.cluster.kill(site)

    async def restart(self, site: str) -> None:
        """Bring a crashed replica back and re-dial it; a wiped one
        first has to rejoin by snapshot install."""
        await self.cluster.restart(site)
        if site in self._wiped:
            self._wiped.discard(site)
            await self.cluster.wait_caught_up(site, timeout=REJOIN_TIMEOUT)
        await self.redial(site)

    async def probe_degraded(
        self, site: str
    ) -> Tuple[Tuple[float, str], Optional[int]]:
        """The availability split at a partitioned replica.  Returns
        the strict (``epsilon = 0``) read's ``(elapsed seconds, error
        code)`` — ``""`` means it answered, which it must not — and
        the bounded read's reported inconsistency (``None``: it failed
        to answer, which it must not)."""
        client = self.clients[site]
        probe_key = self.keys[0]
        t0 = time.monotonic()
        try:
            await client.read(probe_key, Consistency.STRICT, timeout=5.0)
        except LiveETFailed as exc:
            code = exc.code
        except OSError as exc:
            code = type(exc).__name__
        else:
            code = ""
        strict = (time.monotonic() - t0, code)
        try:
            outcome = await client.query(
                [probe_key],
                EpsilonSpec(import_limit=BOUNDED_PROBE_EPSILON),
                timeout=5.0,
            )
        except FAILURES:
            return strict, None
        return strict, outcome["inconsistency"]

    async def wait_for(
        self, predicate: Callable[[], Awaitable[Any]], timeout: float
    ) -> Any:
        """Poll ``predicate`` until it returns something true (which
        is returned) or ``timeout`` seconds pass (``None``)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            value = await predicate()
            if value:
                return value
            await asyncio.sleep(0.1)
        return None

    async def settle(self) -> None:
        await self.cluster.settle(timeout=SETTLE_TIMEOUT)

    # -- the verdict ---------------------------------------------------------

    async def finish(self) -> None:
        """Quiesce and fill the report: convergence, the final store,
        what the servers' traces recorded, artifacts, fault counts,
        wall time."""
        report, cluster = self.report, self.cluster
        # Partitions are healed by now; rate-based link faults (drops,
        # delays) stay on, proving settle tolerates steady-state loss.
        await self.settle()
        report.converged = await cluster.converged()
        groups: List[LiveCluster] = getattr(cluster, "groups", [cluster])
        stores = [await group.site_values() for group in groups]
        merged: Dict[str, Any] = {}
        for store in stores:
            if store:
                merged.update(next(iter(store.values())))
        report.final = {key: merged.get(key, 0) for key in self.keys}
        if not report.converged:
            for group in groups:
                report.site_stats.update(await group.site_stats())
            if len(stores) == 1:  # each site holds the whole store
                report.site_final = {
                    site: {key: values.get(key, 0) for key in self.keys}
                    for site, values in stores[0].items()
                }
        for group in groups:
            for server in group.servers.values():
                for event in server.trace.snapshot():
                    kind = event.get("kind")
                    if kind == "degraded" and event.get("value") == 1:
                        report.degraded_flips += 1
                    elif kind == "query":
                        limit = event.get("limit")
                        seen = event.get("inconsistency", 0)
                        if limit is not None and seen > limit:
                            report.trace_epsilon_breaches.append(
                                (limit, seen)
                            )
        if self.artifacts_dir is not None:
            base = pathlib.Path(self.artifacts_dir)
            if self.router is None:
                report.artifacts = await persist_cluster_artifacts(
                    cluster, base
                )
            else:
                report.artifacts = {"dir": str(base)}
                for index, group in enumerate(groups):
                    sub = await persist_cluster_artifacts(
                        group, base / ("shard%d" % index)
                    )
                    report.artifacts["shard%d" % index] = sub["dir"]
        plan = getattr(cluster, "faults", None)
        if plan is not None:
            report.fault_counts = dict(plan.counts)
        report.wall_seconds = time.monotonic() - self.started


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


# -- faults: lossy links, one partition, one crash/restart --------------------

UPDATE_WORKERS = 6
QUERY_WORKERS = 4
EPSILONS = (1, 2, 5, 10)


@dataclass(frozen=True)
class ChaosConfig:
    """One reproducible faulted-workload scenario.  Everything
    randomized is drawn from ``seed``, so a report names the exact run
    to replay."""

    seed: int = 0
    n_sites: int = 3
    method: str = "commu"
    n_updates: int = 120
    n_queries: int = 36
    #: the update/query workload is paced to span this many seconds so
    #: it overlaps the fault schedule below.
    workload_duration: float = 4.0
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


@dataclass
class ChaosReport(Report):
    config: ChaosConfig
    queries_ok: int = 0
    bounded_failures: int = 0
    epsilon_violations: List[Tuple[float, int]] = field(default_factory=list)
    #: strict probe during the partition: (elapsed seconds, error code).
    strict_probe: Optional[Tuple[float, str]] = None
    #: bounded probe during the partition at the isolated replica.
    partition_bounded_ok: Optional[bool] = None
    partition_bounded_inconsistency: Optional[int] = None

    title = (
        "Chaos run: seed={seed} method={method} sites={n_sites} "
        "(drop={drop:.0%} dup={duplicate:.0%} reorder={reorder:.0%} "
        "delay<={delay_max}s, 1 partition, crash={crash})"
    )
    diverged = "replicas did not converge after faults healed"
    held = (
        "no acked-update loss, no epsilon breach, honest degradation, "
        "converged"
    )

    def findings(self) -> List[str]:
        out: List[str] = []
        for epsilon, seen in self.epsilon_violations:
            out.append(
                "epsilon budget breached: query with epsilon=%s observed "
                "inconsistency %d" % (epsilon, seen)
            )
        if self.strict_probe is not None:
            elapsed, code = self.strict_probe
            if code != "UNAVAILABLE":
                out.append(
                    "partitioned epsilon=0 query did not fail with "
                    "UNAVAILABLE (got %r)" % code
                )
            if elapsed >= STRICT_REFUSAL_LIMIT:
                out.append(
                    "partitioned epsilon=0 query took %.2fs to fail "
                    "(must be < %.0f s)" % (elapsed, STRICT_REFUSAL_LIMIT)
                )
        if self.partition_bounded_ok is False:
            out.append(
                "bounded query did not answer during the partition"
            )
        return out


async def _drive_faults(run: Run) -> None:
    report, config = run.report, run.report.config
    await run.start(
        n_sites=config.n_sites,
        method=config.method,
        faults=FaultPlan(
            config.seed,
            default=LinkFaults(
                drop=config.drop,
                duplicate=config.duplicate,
                reorder=config.reorder,
                delay_max=config.delay_max,
            ),
        ),
    )
    isolated = run.names[-1]
    #: sites safe to aim workload at (shrinks around the crash window).
    targets = set(run.names)

    async def update_worker(quota: int, worker_rng: random.Random) -> None:
        pace = config.workload_duration / max(quota, 1)
        for _ in range(quota):
            site = worker_rng.choice(sorted(targets))
            key = worker_rng.choice(run.keys)
            await run.update(run.clients[site], key)
            await asyncio.sleep(worker_rng.uniform(0.5, 1.0) * pace)

    async def query_worker(quota: int, worker_rng: random.Random) -> None:
        pace = config.workload_duration / max(quota, 1)
        for i in range(quota):
            site = worker_rng.choice(sorted(targets))
            epsilon = EPSILONS[i % len(EPSILONS)]
            key = worker_rng.choice(run.keys)
            try:
                outcome = await run.clients[site].query(
                    [key], EpsilonSpec(import_limit=epsilon)
                )
            except FAILURES:
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
        heal_at = time.monotonic() + config.partition_duration
        await run.partition(
            [[isolated], [n for n in run.names if n != isolated]]
        )
        # Availability: the partitioned replica refuses strict reads
        # fast and still answers bounded ones, with honest accounting.
        report.strict_probe, bounded = await run.probe_degraded(isolated)
        report.partition_bounded_ok = bounded is not None
        report.partition_bounded_inconsistency = bounded
        await asyncio.sleep(max(0.0, heal_at - time.monotonic()))
        run.heal()

    async def crash_phase() -> None:
        if not config.crash:
            return
        await asyncio.sleep(config.crash_at)
        targets.discard(isolated)
        await run.crash(isolated)
        await asyncio.sleep(config.crash_duration)
        await run.restart(isolated)
        targets.add(isolated)

    per_updater = max(1, config.n_updates // UPDATE_WORKERS)
    per_querier = max(1, config.n_queries // QUERY_WORKERS)
    tasks = [
        update_worker(per_updater, random.Random(run.rng.random()))
        for _ in range(UPDATE_WORKERS)
    ]
    tasks += [
        query_worker(per_querier, random.Random(run.rng.random()))
        for _ in range(QUERY_WORKERS)
    ]
    tasks += [partition_phase(), crash_phase()]
    await asyncio.gather(*tasks)


# -- rejoin: disk wipe / long downtime ----------------------------------------


@dataclass(frozen=True)
class RejoinConfig:
    """One reproducible rejoin scenario.

    The victim is always the *last* site: with ORDUP the sequencer
    starts at the lexicographically first site, and keeping it out of
    the blast radius means this scenario measures rejoin mechanics,
    not leader failover (losing the sequencer triggers an epoch-fenced
    election — the ``elect`` scenario covers that path).
    """

    seed: int = 0
    n_sites: int = 3
    method: str = "commu"
    #: True destroys the victim's data dir (disk loss); False only
    #: keeps it down (long downtime — recovery via channel redelivery).
    wipe: bool = True
    #: updates across *all* sites before the outage — the victim's own
    #: acked updates are the state a wiped disk cannot replay back.
    n_updates_before: int = 60
    #: updates at the surviving donors while the victim is down.
    n_updates_during: int = 60
    #: updates at the rejoined victim afterwards (tid-collision probe).
    n_updates_after: int = 12
    heartbeat_interval: float = HEARTBEAT_INTERVAL
    suspect_after: float = SUSPECT_AFTER


@dataclass
class RejoinReport(Report):
    config: RejoinConfig
    #: converged values just before the outage (must survive it).
    pre_outage: Dict[str, Any] = field(default_factory=dict)
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

    title = (
        "Rejoin run: seed={seed} method={method} sites={n_sites} "
        "(wipe={wipe}, {n_updates_before}+{n_updates_during}+"
        "{n_updates_after} updates)"
    )
    across = " across the outage"
    diverged = "replicas did not reconverge after the rejoin"

    @property
    def held(self) -> str:
        return (
            "no acked-update loss across the %s, snapshot rejoin, "
            "reconverged" % ("disk wipe" if self.config.wipe else "outage")
        )

    def findings(self) -> List[str]:
        out: List[str] = []
        if self.config.wipe and self.catchup_installs < 1:
            out.append(
                "wiped replica rejoined without a snapshot install "
                "(full replay should have been impossible)"
            )
        if self.config.n_updates_after and self.victim_acked_after == 0:
            out.append("rejoined replica acknowledged no new updates")
        return out


async def _drive_rejoin(run: Run) -> None:
    report, config = run.report, run.report.config
    await run.start(
        n_sites=config.n_sites,
        method=config.method,
        heartbeat_interval=config.heartbeat_interval,
        suspect_after=config.suspect_after,
    )
    cluster = run.cluster
    victim = run.names[-1]
    donors = run.names[:-1]

    # Phase 1: everyone takes writes, then checkpoint + compact.
    # After this the victim's own updates live only in snapshots —
    # every log record at or below the frontiers is gone.
    await run.spray(config.n_updates_before, run.names)
    await run.settle()
    snaps = await cluster.snapshot_all()
    report.snapshot_bytes = {
        name: int(s.get("bytes", 0)) for name, s in snaps.items()
    }
    report.compacted_records = sum(
        int(s.get("compacted", 0)) for s in snaps.values()
    )
    values = await cluster.site_values()
    report.pre_outage = {
        key: next(iter(values.values())).get(key, 0) for key in run.keys
    }

    # Phase 2: the victim loses its disk (or just goes dark) while
    # the donors keep writing.
    await run.crash(victim, wipe=config.wipe)
    if not cluster.servers[donors[0]].engine.sync_commit:
        await run.spray(config.n_updates_during, donors)
    # (sync-commit methods — the ROWA baseline — cannot accept writes
    # with a replica down; that unavailability is exactly what the
    # paper's asynchronous methods avoid, so the outage phase is
    # write-free for them.)

    # Phase 3: restart and measure restart-to-settled.
    t0 = time.monotonic()
    await run.restart(victim)
    await run.settle()
    report.rejoin_seconds = time.monotonic() - t0
    report.catchup_installs = cluster.servers[victim].recovery.installs

    # Phase 4: the rejoined victim must be a first-class replica
    # again — new updates, fresh tids, full propagation.
    report.victim_acked_after = await run.spray(
        config.n_updates_after, [victim]
    )


# -- migrate: live shard cutover under routed load ----------------------------

#: enough keys that every shard owns several.
MIGRATE_KEYS = tuple("acct%d" % i for i in range(8))
#: the shard that moves groups mid-workload.
MIGRATE_SHARD = 1
#: how long the killed replacement replica stays down.
CRASH_HEAL_DELAY = 0.4


@dataclass(frozen=True)
class MigrateConfig:
    """One reproducible live-migration scenario.

    ``crash_during=True`` kills one replacement replica in the window
    between the fence and the state transfer — the point where a
    buggy cutover would lose acknowledged updates — and heals it
    shortly after; the migration must stall and then complete, not
    fail.
    """

    seed: int = 0
    n_shards: int = 3
    replicas: int = 3
    method: str = "commu"
    #: routed updates before / concurrently with / after the cutover.
    n_updates_before: int = 45
    n_updates_during: int = 30
    n_updates_after: int = 30
    crash_during: bool = True


@dataclass
class MigrateReport(Report):
    config: MigrateConfig
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

    title = (
        "Migration run: seed={seed} method={method} shards={n_shards} "
        "x{replicas} replicas ({n_updates_before}+{n_updates_during}+"
        "{n_updates_after} routed updates, crash_during={crash_during})"
    )
    across = " across the migration"
    diverged = "replicas did not converge after the migration"
    held = (
        "no acked-update loss across the cutover, snapshot-install "
        "rejoin, honest WRONG_SHARD fencing, converged"
    )

    def findings(self) -> List[str]:
        out: List[str] = []
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
        return out


async def _drive_migrate(run: Run) -> None:
    report, config = run.report, run.report.config
    shard = MIGRATE_SHARD % config.n_shards
    report.migrated_keys = tuple(
        k for k in MIGRATE_KEYS if key_shard(k, config.n_shards) == shard
    )
    await run.start(
        keys=MIGRATE_KEYS,
        n_shards=config.n_shards,
        replicas=config.replicas,
        method=config.method,
    )
    cluster = run.cluster

    # Phase 1: routed writes so the migrating shard owns
    # acknowledged state, checkpointed nowhere but its group.
    await run.spray(config.n_updates_before)
    await run.settle()
    report.epoch_before = cluster.map.epoch
    old_group = cluster.groups[shard]
    old_addr = old_group.addrs[old_group.names[0]]

    # Phase 2: live cutover, with the write workload still running
    # through the router — requests that catch the fence retry off
    # the WRONG_SHARD map hint.
    heal_tasks: List[asyncio.Task] = []

    async def crash_mid_migration() -> None:
        if not config.crash_during:
            return
        pending = cluster.pending
        victim = pending.names[-1]
        await pending.kill(victim)

        async def heal() -> None:
            await asyncio.sleep(CRASH_HEAL_DELAY)
            await pending.restart(victim)

        heal_tasks.append(asyncio.create_task(heal()))

    t0 = time.monotonic()
    migration = asyncio.ensure_future(
        cluster.migrate(
            shard,
            before_install=crash_mid_migration,
            settle_timeout=SETTLE_TIMEOUT,
            step_timeout=MIGRATION_TIMEOUT,
        )
    )
    try:
        await run.spray(config.n_updates_during, pace=0.02)
        await migration
    finally:
        for task in heal_tasks:
            if not task.done():
                task.cancel()
    report.migration_seconds = time.monotonic() - t0
    report.epoch_after = cluster.map.epoch
    report.new_group_installs = sum(
        server.recovery.installs
        for server in cluster.groups[shard].servers.values()
    )

    # Phase 3: the new owner is a first-class group — more routed
    # writes, a strict read, and an honest refusal from the old
    # group when addressed directly at its stale address.
    await run.spray(config.n_updates_after)
    await run.settle()
    if report.migrated_keys:
        probe_key = report.migrated_keys[0]
        try:
            await run.router.read(probe_key, Consistency.STRICT)
            report.strict_read_ok = True
        except FAILURES:
            report.strict_read_ok = False
        stale = await LiveClient.connect(
            *old_addr, reconnect=False, request_timeout=5.0
        )
        try:
            await stale.read(probe_key)
            report.old_group_refuses = False
        except LiveETFailed as exc:
            report.old_group_refuses = exc.wrong_shard
        except OSError:
            report.old_group_refuses = None  # already decommissioned
        finally:
            await stale.close()
    else:  # pragma: no cover — 8 keys over <= 8 shards always hit
        report.strict_read_ok = True
    report.router_map_refreshes = run.router.map_refreshes


# -- elect: sequencer failover ------------------------------------------------

#: a faster detector than the other scenarios': the blackout window is
#: mostly detection, and this is what the published numbers were
#: measured at.
ELECT_HEARTBEAT_INTERVAL = 0.1
ELECT_SUSPECT_AFTER = 0.4
#: an order acquisition spins through the whole election.
ELECT_REQUEST_TIMEOUT = 30.0
#: updates across *all* sites before the crash (warm-up, so the victim
#: owns acknowledged, fully propagated state) ...
ELECT_UPDATES_BEFORE = 40
#: ... and routed *through the resurrected ex-leader* afterwards.
ELECT_UPDATES_AFTER = 12
#: wall-clock budget for the blackout window (detector dead-escalation
#: + election + lease + retry).
BLACKOUT_LIMIT = 15.0
#: wall-clock budget for the new epoch to appear in stats.
ELECT_TIMEOUT = 20.0


@dataclass(frozen=True)
class ElectConfig:
    """One reproducible sequencer-failover scenario (ORDUP).

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
    #: updates at the survivors while the old leader stays down.
    n_updates_during: int = 40


@dataclass
class ElectReport(Report):
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
    #: updates acked through the resurrected ex-leader.
    revenant_acked: int = 0

    title = (
        "Failover run: seed={seed} method=ordup sites={n_sites} "
        "(%d+{n_updates_during}+%d updates, blackout budget %.1fs)"
        % (ELECT_UPDATES_BEFORE, ELECT_UPDATES_AFTER, BLACKOUT_LIMIT)
    )
    across = " across the failover"
    diverged = "replicas did not reconverge after the failover"
    held = (
        "election fenced the old epoch, no acked-update loss, one "
        "leader per epoch, converged"
    )

    def findings(self) -> List[str]:
        out: List[str] = []
        if self.epoch_after <= self.epoch_before:
            out.append(
                "crashing the sequencer did not trigger an election "
                "(epoch stayed at %d)" % self.epoch_before
            )
        elif not self.new_leader or self.new_leader == self.old_leader:
            out.append(
                "leadership did not move off the crashed sequencer"
            )
        if self.blackout_seconds > BLACKOUT_LIMIT:
            out.append(
                "failover blackout %.2fs exceeded the %.1fs budget"
                % (self.blackout_seconds, BLACKOUT_LIMIT)
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
                % dict(sorted(self.leader_views.items()))
            )
        if self.revenant_acked == 0:
            out.append(
                "no update routed through the resurrected ex-leader "
                "was acknowledged"
            )
        return out


async def _drive_elect(run: Run) -> None:
    report, config = run.report, run.report.config
    await run.start(
        request_timeout=ELECT_REQUEST_TIMEOUT,
        n_sites=config.n_sites,
        method="ordup",
        heartbeat_interval=ELECT_HEARTBEAT_INTERVAL,
        suspect_after=ELECT_SUSPECT_AFTER,
    )
    cluster, clients = run.cluster, run.clients
    leader = cluster.servers[run.names[0]].current_leader()
    report.old_leader = leader
    survivors = [n for n in run.names if n != leader]

    async def election_at(site: str) -> Dict[str, Any]:
        return (await clients[site].stats()).get("election", {})

    async def adopted(site: str, epoch: int, synced: bool = False) -> Any:
        """``site``'s election view once it shows ``epoch`` or later
        (and, if asked, has synced to it); ``None`` if it never does."""

        async def view() -> Optional[Dict[str, Any]]:
            election = await election_at(site)
            behind = int(election.get("epoch", 0)) < epoch
            unsynced = synced and not election.get("synced")
            return None if behind or unsynced else election

        return await run.wait_for(view, ELECT_TIMEOUT)

    # Phase 1: warm up through the initial sequencer and settle, so
    # the victim's acked state is fully propagated when it dies.
    await run.spray(ELECT_UPDATES_BEFORE, run.names)
    await run.settle()
    report.epoch_before = cluster.servers[survivors[0]].election.epoch

    # Phase 2: kill the sequencer.  The blackout window is crash to
    # first survivor-acked update: the survivor's order acquisition
    # spins while the detector escalates and the election runs, so
    # one increment call measures the whole outage end-to-end.
    await run.crash(leader)
    t0 = time.monotonic()
    deadline = t0 + BLACKOUT_LIMIT + 5.0
    while True:
        reply = await run.update(clients[survivors[0]], run.keys[0])
        report.blackout_seconds = time.monotonic() - t0
        if reply is not None or time.monotonic() >= deadline:
            break

    # The election must be visible in stats (epoch bumped, leader
    # moved) — poll a survivor.
    view = await adopted(survivors[0], report.epoch_before + 1)
    if view:
        report.epoch_after = int(view["epoch"])
        report.new_leader = str(view.get("leader") or "")

    # Phase 3: the survivors keep writing under the new sequencer.
    await run.spray(config.n_updates_during, survivors)

    # Phase 4: resurrect the deposed leader and immediately ask it
    # for an order token.  Its durable election state predates the
    # failover, so before the epoch probe completes it is a live
    # replica that still *believes* it is the sequencer — exactly the
    # split-brain window the fencing must close: the probe must be
    # refused (or, once resynced, redirected), never granted at the
    # stale epoch.
    await run.restart(leader)
    try:
        reply = await clients[leader].request("order", timeout=5.0)
    except LiveETFailed as exc:
        report.stale_probe = (exc.code or "ERROR", -1)
    except FAILURES as exc:
        report.stale_probe = (type(exc).__name__, -1)
    else:
        order = list(reply.get("order") or [])
        report.stale_probe = ("", int(order[1]) if len(order) > 1 else 0)

    # The revenant must adopt the new epoch via its boot probe /
    # gossip, then serve as an ordinary replica.
    view = await adopted(leader, report.epoch_after, synced=True)
    if view:
        report.resynced_epoch = int(view["epoch"])

    # Phase 5: updates routed through the ex-leader must reach the
    # new sequencer and ack.
    report.revenant_acked = await run.spray(ELECT_UPDATES_AFTER, [leader])
    await run.settle()
    for name in run.names:
        election = await election_at(name)
        report.leader_views[name] = (
            int(election.get("epoch", 0)),
            str(election.get("leader") or ""),
        )


# -- wan: two regions, one region partition -----------------------------------

#: region -> sites; the cluster is these sites, in this order.
WAN_REGIONS: Dict[str, Tuple[str, ...]] = {
    "region0": ("site0", "site1"),
    "region1": ("site2", "site3"),
}
#: updates *per region* while partitioned, and after the heal.
WAN_UPDATES_DURING = 20
WAN_UPDATES_AFTER = 20


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
    n_updates_before: int = 40


@dataclass
class WanReport(Report):
    config: WanConfig
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

    title = (
        "WAN run: seed={seed} method={method} %d regions "
        "({n_updates_before}+%dx%d+%d updates)"
        % ((len(WAN_REGIONS),) * 2 + (WAN_UPDATES_DURING, WAN_UPDATES_AFTER))
    )
    across = " across the region partition"
    diverged = "regions did not reconverge after the heal"
    held = (
        "both regions stayed live within epsilon, strict reads refused "
        "honestly, reconverged"
    )

    def findings(self) -> List[str]:
        out: List[str] = []
        for region in sorted(WAN_REGIONS):
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
                elif elapsed > STRICT_REFUSAL_LIMIT:
                    out.append(
                        "epsilon=0 refusal in region %s took %.2fs "
                        "(budget %.1fs)"
                        % (region, elapsed, STRICT_REFUSAL_LIMIT)
                    )
            if self.bounded_probes.get(region) is None:
                out.append(
                    "bounded read went unavailable in partitioned "
                    "region %s" % region
                )
            if self.partition_acked.get(region, 0) == 0:
                out.append(
                    "no update acked in region %s during the partition "
                    "(asynchronous writes must stay live)" % region
                )
        if not self.fault_counts.get("delayed"):
            out.append(
                "WAN latency model never engaged (no delayed frames)"
            )
        return out


async def _drive_wan(run: Run) -> None:
    report, config = run.report, run.report.config
    plan = FaultPlan(config.seed)
    plan.set_regions(WAN_REGIONS)
    await run.start(
        site_names=[s for sites in WAN_REGIONS.values() for s in sites],
        method=config.method,
        faults=plan,
    )

    # Phase 1: cross-region steady state over the modeled WAN.
    await run.spray(config.n_updates_before, run.names)
    await run.settle()

    # Phase 2: sever every inter-region link and let the failure
    # detectors age the remote peers out.
    await run.partition(plan.region_groups())
    for region, sites in sorted(WAN_REGIONS.items()):
        (
            report.strict_probes[region],
            report.bounded_probes[region],
        ) = await run.probe_degraded(sites[0])
        # Asynchronous writes must keep acking region-locally.
        report.partition_acked[region] = await run.spray(
            WAN_UPDATES_DURING, sites
        )

    # Phase 3: heal and reconverge across the WAN.
    run.heal()
    await run.spray(WAN_UPDATES_AFTER, run.names)


# -- saga: COMPE compensation storm -------------------------------------------

#: plain (auto-commit) COMPE updates before the sagas.
SAGA_BACKGROUND_UPDATES = 24
#: fraction of sagas aborted (the compensation storm).
ABORT_FRACTION = 0.5


@dataclass(frozen=True)
class SagaConfig:
    """One reproducible COMPE saga scenario.

    The victim is the last site; it is crashed in the middle of the
    abort storm while a survivor keeps deciding sagas.  With ``wipe``
    its disk is destroyed and it rejoins by snapshot install, its COMPE
    tables coming entirely from the donor's engine checkpoint; without
    it, it recovers from its own checkpoint and replayed logs, where
    every undo step is re-derived from a logged update or read from
    the checkpoint.  The network is clean on purpose:
    every submitted update must ack, so the final store is predicted
    *exactly* and any lost or double-applied compensation shows up as
    an off-by-amount, not a tolerance miss.
    """

    seed: int = 0
    n_sites: int = 3
    #: sagas submitted, each ``steps_per_saga`` increments.
    n_sagas: int = 10
    steps_per_saga: int = 3
    #: crash the victim mid-storm; ``wipe`` also destroys its disk.
    crash: bool = True
    wipe: bool = True


@dataclass
class SagaReport(Report):
    """The ledger here counts increment *amounts* and, aborted sagas'
    steps taken back out, ``acked`` is the exact prediction of the
    converged store (committed effects only)."""

    config: SagaConfig
    sagas_committed: int = 0
    sagas_aborted: int = 0
    #: saga step tids reported compensated by abort decides.
    steps_compensated: int = 0
    #: per-replica compensations applied (engine counters), summed.
    compensations_total: int = 0
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

    title = (
        "Saga run: seed={seed} sites={n_sites} (%d background updates, "
        "{n_sagas} sagas x {steps_per_saga} steps, %d%% aborted, "
        "crash={crash} wipe={wipe})"
        % (SAGA_BACKGROUND_UPDATES, ABORT_FRACTION * 100)
    )
    exact = True
    diverged = "replicas did not converge after the compensation storm"
    held = (
        "exact convergence through the mid-storm crash, idempotent "
        "compensation replay, honest COMPENSATED reporting"
    )

    def findings(self) -> List[str]:
        out: List[str] = list(self.anomalies)
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
        return out


async def _drive_saga(run: Run) -> None:
    report, config = run.report, run.report.config
    await run.start(n_sites=config.n_sites, method="compe")
    cluster, clients, rng = run.cluster, run.clients, run.rng
    victim = run.names[-1]
    decider = clients[run.names[0]]

    # Phase 1: background auto-committed COMPE updates everywhere.
    for _ in range(SAGA_BACKGROUND_UPDATES):
        site = rng.choice(run.names)
        key = rng.choice(run.keys)
        await run.update(clients[site], key, rng.randint(1, 5))

    # Phase 2: the sagas.  Every step is tagged with its saga id
    # and stays undecided; effects land optimistically everywhere.
    sagas: Dict[str, List[Tuple[str, str, int]]] = {}
    outcomes: Dict[str, str] = {}
    for i in range(config.n_sagas):
        saga_id = "saga-%d" % i
        outcomes[saga_id] = (
            "abort" if rng.random() < ABORT_FRACTION else "commit"
        )
        members: List[Tuple[str, str, int]] = []
        for _ in range(config.steps_per_saga):
            site = rng.choice(run.names)
            key = rng.choice(run.keys)
            amount = rng.randint(1, 5)
            reply = await run.update(
                clients[site], key, amount, saga=saga_id
            )
            if reply is not None:
                members.append((reply.get("tid"), key, amount))
        sagas[saga_id] = members
    # Committed sagas' effects are the only saga effects that may
    # survive to the converged store: an aborted saga's steps leave
    # the ledger again.
    for saga_id, members in sagas.items():
        if outcomes[saga_id] == "abort":
            for _, key, amount in members:
                report.acked[key] -= amount
                report.attempted[key] -= amount
    # Every step must be visible at every site before deciding —
    # decisions consult the decider's own saga-membership table.
    await run.settle()

    async def decide(saga_id: str) -> None:
        outcome = outcomes[saga_id]
        reply = await decider.decide(outcome, saga=saga_id)
        members = {tid for tid, _, _ in sagas[saga_id]}
        decided = set(reply.get("decided", ()))
        if decided != members:
            report.anomalies.append(
                "decide(%s, %s) decided %s, expected exactly the "
                "member tids %s"
                % (saga_id, outcome, sorted(decided), sorted(members))
            )
        if outcome == "abort":
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
        await decide(saga_id)
    if config.crash:
        await run.crash(victim, wipe=config.wipe)
    for saga_id in order[midpoint:]:
        await decide(saga_id)
    report.sagas_aborted = sum(
        1 for o in outcomes.values() if o == "abort"
    )
    report.sagas_committed = len(outcomes) - report.sagas_aborted

    # Phase 4: heal.  A wiped victim must rejoin by snapshot
    # install (its disk is gone — the donor's engine checkpoint is
    # the only source of its COMPE tables); a merely crashed one
    # replays updates and decisions from its own durable logs.
    if config.crash:
        await run.restart(victim)
    await run.settle()
    if config.crash:
        report.catchup_installs = cluster.servers[victim].recovery.installs

    # Phase 5: idempotence probe.  Re-issue every abort decide —
    # at a survivor AND at the healed victim — and require that
    # nothing is decided again and no compensation counter moves.
    before = {
        name: server.engine.compensation_count
        for name, server in cluster.servers.items()
    }
    second = victim if config.crash else run.names[0]
    for saga_id in sorted(sagas):
        if outcomes[saga_id] != "abort":
            continue
        for site in (run.names[0], second):
            reply = await clients[site].decide("abort", saga=saga_id)
            report.reissue_decided += len(reply.get("decided", ()))
    await run.settle()
    report.reissue_compensation_delta = sum(
        abs(server.engine.compensation_count - before[name])
        for name, server in cluster.servers.items()
    )

    # Phase 6: honest typed reporting — an abort=True update must
    # surface COMPENSATED naming the undone tid.  Its net effect is
    # zero, so it stays out of the ledger.
    try:
        await decider.update([IncrementOp(run.keys[0], 7)], abort=True)
    except LiveETFailed as exc:
        report.honest_probe = (exc.code, exc.compensated_tids)
    else:
        report.honest_probe = ("", ())

    # Phase 7: what the storm cost, once it is quiet.
    await run.settle()
    report.compensations_total = sum(
        server.engine.compensation_count
        for server in cluster.servers.values()
    )


# -- the table ----------------------------------------------------------------

#: scenario name -> (config type, report type, the phases).
SCENARIOS: Dict[str, Tuple[type, type, Callable[[Run], Awaitable[None]]]] = {
    "faults": (ChaosConfig, ChaosReport, _drive_faults),
    "rejoin": (RejoinConfig, RejoinReport, _drive_rejoin),
    "migrate": (MigrateConfig, MigrateReport, _drive_migrate),
    "elect": (ElectConfig, ElectReport, _drive_elect),
    "wan": (WanConfig, WanReport, _drive_wan),
    "saga": (SagaConfig, SagaReport, _drive_saga),
}


async def run_scenario(
    config: Any,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> Any:
    """Execute the scenario ``config`` belongs to; never raises on an
    invariant failure — inspect :meth:`Report.violations`.

    With ``artifacts_dir``, the run persists every replica's metrics
    (``<site>.prom`` Prometheus text + one combined ``metrics.json``)
    and the merged lifecycle trace (``trace.jsonl``), per shard group
    for a sharded cluster.
    """
    for config_type, report_type, drive in SCENARIOS.values():
        if type(config) is config_type:
            break
    else:
        raise TypeError("no chaos scenario takes a %r" % type(config))
    run = Run(
        report_type(config=config), config.seed, data_dir, artifacts_dir
    )
    try:
        await drive(run)
        await run.finish()
    finally:
        await run.stop()
    return run.report


def run_scenario_sync(
    config: Any,
    data_dir: Optional[pathlib.Path] = None,
    artifacts_dir: Optional[pathlib.Path] = None,
) -> Any:
    """Blocking wrapper for CLI / benchmark use."""
    return asyncio.run(run_scenario(config, data_dir, artifacts_dir))
