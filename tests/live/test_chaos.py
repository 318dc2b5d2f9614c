"""Chaos-harness integration tests: the paper's invariants under a
seeded schedule of drops, delays, duplications, reordering, one
partition, and one crash/restart — all on a real TCP cluster.

These are the acceptance tests for the robustness subsystem: a run is
correct iff no acknowledged update is lost, no query exceeds its
epsilon budget, the partitioned replica degrades honestly (bounded
queries answer, ``epsilon = 0`` fails fast with ``UNAVAILABLE``), and
all replicas converge to identical state once faults heal.

The oracle itself is tested socket-free (every finding a report can
return, from a planted fact), every packaged scenario runs once with
a small config, and one test-local scenario shows the phases compose.
"""

import ast
import asyncio
import json
import pathlib
import re
import time

import pytest

import repro.live.chaos as chaos
from repro.__main__ import _CHAOS_FLAGS
from repro.consistency import Consistency
from repro.live import (
    SCENARIOS,
    ChaosConfig,
    ElectConfig,
    FaultPlan,
    LinkFaults,
    LiveCluster,
    LiveETFailed,
    MigrateConfig,
    RejoinConfig,
    Report,
    Run,
    SagaConfig,
    WanConfig,
    run_scenario_sync,
)
from repro.obs.trace import load_trace_jsonl


def run(coro):
    return asyncio.run(coro)


#: compact but complete schedule: every fault type plus partition+crash.
SMOKE_CONFIG = ChaosConfig(
    seed=7,
    n_sites=3,
    method="commu",
    n_updates=60,
    n_queries=20,
    workload_duration=3.0,
    drop=0.08,
    duplicate=0.05,
    reorder=0.10,
    delay_max=0.01,
    partition_at=0.2,
    partition_duration=1.6,
    crash=True,
    crash_at=2.1,
    crash_duration=0.4,
)

#: one small run of every packaged scenario.
SMOKE = {
    "faults": SMOKE_CONFIG,
    "rejoin": RejoinConfig(
        seed=7,
        n_sites=3,
        n_updates_before=12,
        n_updates_during=12,
        n_updates_after=4,
    ),
    "migrate": MigrateConfig(
        seed=7,
        n_shards=2,
        replicas=2,
        method="commu",
        n_updates_before=12,
        n_updates_during=8,
        n_updates_after=8,
    ),
    "elect": ElectConfig(seed=7, n_sites=3, n_updates_during=8),
    "wan": WanConfig(seed=7, method="commu", n_updates_before=12),
    "saga": SagaConfig(
        seed=7, n_sites=3, n_sagas=6, steps_per_saga=2, crash=True, wipe=True
    ),
}


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """``SMOKE_CONFIG`` run once, with artifacts, for every test that
    only reads the report (3.9 s each otherwise)."""
    base = tmp_path_factory.mktemp("chaos-smoke")
    report = run_scenario_sync(
        SMOKE_CONFIG,
        data_dir=base / "data",
        artifacts_dir=base / "artifacts",
    )
    return report, base / "artifacts"


class TestChaosInvariants:
    def test_seeded_chaos_run_holds_every_invariant(self, smoke_run):
        report, _ = smoke_run
        assert report.violations() == [], report.render()
        # The schedule actually injected damage — a chaos run against
        # an accidentally-clean transport proves nothing.
        assert report.fault_counts["dropped"] > 0
        assert report.fault_counts["duplicated"] > 0
        assert report.fault_counts["delayed"] > 0
        assert report.fault_counts["blocked"] > 0  # the partition bit
        # The probes ran: honest degradation was actually observed.
        elapsed, code = report.strict_probe
        assert code == "UNAVAILABLE"
        assert elapsed < 1.0
        assert report.partition_bounded_ok is True
        assert report.converged

    def test_chaos_persists_observability_artifacts(self, smoke_run):
        """With ``artifacts_dir`` the run leaves per-site Prometheus
        text, combined metrics JSON, and the merged lifecycle trace on
        disk, and the trace-derived checks populate the report: the
        partition shows up as degraded gauge flips and bounded queries
        never recorded inconsistency above their limit."""
        report, artifacts = smoke_run
        assert report.violations() == [], report.render()
        assert report.degraded_flips >= 1
        assert report.trace_epsilon_breaches == []

        for site in ("site0", "site1", "site2"):
            prom = (artifacts / ("%s.prom" % site)).read_text()
            assert "# TYPE repro_applied_msets_total counter" in prom
            assert 'site="%s"' % site in prom
        combined = json.loads((artifacts / "metrics.json").read_text())
        assert set(combined) == {"site0", "site1", "site2"}
        assert "repro_epsilon_last" in combined["site0"]
        events = load_trace_jsonl(artifacts / "trace.jsonl")
        kinds = {e["kind"] for e in events}
        assert {"update-submit", "update-apply", "update-ack"} <= kinds
        assert "degraded" in kinds
        # Merged trace is in global timestamp order.
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)

    def test_same_seed_same_fault_pressure(self):
        """The deterministic part of the harness: two plans with one
        seed issue identical per-link fate streams."""
        spec = LinkFaults(drop=0.2, duplicate=0.1, delay_max=0.005)
        one = FaultPlan(seed=SMOKE_CONFIG.seed, default=spec)
        two = FaultPlan(seed=SMOKE_CONFIG.seed, default=spec)
        stream_one = [one.link("site0", "site1").fate(0) for _ in range(64)]
        stream_two = [two.link("site0", "site1").fate(0) for _ in range(64)]
        assert stream_one == stream_two


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_smoke(self, name, request, tmp_path):
        """Every packaged scenario, through the one entry point."""
        if name == "faults":
            report, _ = request.getfixturevalue("smoke_run")
        else:
            report = run_scenario_sync(SMOKE[name], data_dir=tmp_path)
        assert type(report) is SCENARIOS[name][1]
        assert report.violations() == [], report.render()
        assert report.converged and report.ok
        assert sum(report.acked.values()) > 0
        assert report.update_failures == 0 or name == "faults"
        assert report.wall_seconds > 0
        assert "all invariants held" in report.render()

    def test_unknown_config_type_is_refused(self):
        with pytest.raises(TypeError, match="no chaos scenario"):
            run_scenario_sync(object())

    def test_phases_compose_into_a_new_scenario(self, tmp_path):
        """A scenario none of the six is — COMPE partitioned, probed,
        healed, then disk-wiped and rejoined — written only in
        ``Run``'s public actions: the harness hides the plumbing
        (clients, re-dial, catch-up wait, ledger, verdict)."""

        async def scenario():
            run = Run(Report(config=None), seed=5, data_dir=tmp_path)
            try:
                await run.start(
                    n_sites=3,
                    method="compe",
                    faults=FaultPlan(seed=5),
                    heartbeat_interval=0.1,
                    suspect_after=0.4,
                )
                *majority, victim = run.names
                await run.spray(12, run.names)
                await run.partition([[victim], majority])
                strict, bounded = await run.probe_degraded(victim)
                await run.spray(6, [victim])
                run.heal()
                # What the victim acked alone must reach a peer before
                # its disk goes: asynchronous means not yet replicated.
                await run.settle()
                await run.crash(victim, wipe=True)
                await run.spray(6, majority)
                await run.restart(victim)
                await run.spray(3, [victim])
                await run.finish()
            finally:
                await run.stop()
            return run.report, strict, bounded

        t0 = time.monotonic()
        report, (elapsed, code), bounded = run(scenario())
        assert time.monotonic() - t0 < 3.0
        assert report.violations() == [], report.render()
        assert sum(report.acked.values()) == 27 and report.converged
        assert code == "UNAVAILABLE" and elapsed < 1.0
        assert bounded is not None
        assert report.degraded_flips >= 1 and report.partitions_held == 1


# ---------------------------------------------------------------------------
# The oracle can fail: every finding, from a planted fact, socket-free.
# ---------------------------------------------------------------------------

LEDGER = {
    "acked": {"acct0": 2},
    "attempted": {"acct0": 2},
    "final": {"acct0": 2},
    "converged": True,
}
REGIONS = ("region0", "region1")

#: per scenario, the observations of a run in which everything held.
CLEAN = {
    "faults": dict(
        LEDGER,
        strict_probe=(0.01, "UNAVAILABLE"),
        partition_bounded_ok=True,
        partitions_held=1,
        degraded_flips=1,
    ),
    "rejoin": dict(LEDGER, catchup_installs=1, victim_acked_after=3),
    "migrate": dict(
        LEDGER,
        epoch_before=0,
        epoch_after=1,
        new_group_installs=3,
        old_group_refuses=True,
        strict_read_ok=True,
    ),
    "elect": dict(
        LEDGER,
        old_leader="site0",
        new_leader="site1",
        epoch_after=1,
        blackout_seconds=1.5,
        stale_probe=("UNAVAILABLE", -1),
        resynced_epoch=1,
        leader_views={"site0": (1, "site1"), "site1": (1, "site1")},
        revenant_acked=3,
    ),
    "wan": dict(
        LEDGER,
        strict_probes=dict.fromkeys(REGIONS, (0.01, "UNAVAILABLE")),
        bounded_probes=dict.fromkeys(REGIONS, 0),
        partition_acked=dict.fromkeys(REGIONS, 5),
        fault_counts={"delayed": 9},
        partitions_held=1,
        degraded_flips=2,
    ),
    "saga": dict(
        LEDGER,
        sagas_aborted=5,
        steps_compensated=15,
        compensations_total=45,
        honest_probe=("COMPENSATED", ("site0:9",)),
        catchup_installs=1,
    ),
}


def planted(name, **facts):
    config_type, report_type, _ = SCENARIOS[name]
    return report_type(config=config_type(), **{**CLEAN[name], **facts})


LOST = "%s converged to 1 but 2 increments were acknowledged"
VIEWS = {"site0": (1, "site1"), "site1": (1, "site0")}

#: (scenario, planted fact, the one finding it must produce)
FINDINGS = [
    # The ledger, with each scenario's own phrase.
    ("faults", {"final": {"acct0": 1}},
     "acked update lost: " + LOST % "acct0"),
    ("rejoin", {"final": {"acct0": 1}},
     "acked update lost across the outage: " + LOST % "acct0"),
    ("migrate", {"final": {"acct0": 1}},
     "acked update lost across the migration: " + LOST % "acct0"),
    ("elect", {"final": {"acct0": 1}},
     "acked update lost across the failover: " + LOST % "acct0"),
    ("wan", {"final": {"acct0": 1}},
     "acked update lost across the region partition: " + LOST % "acct0"),
    ("saga", {"final": {"acct0": 3}},
     "store mismatch: acct0 converged to 3, exact prediction from "
     "committed effects is 2 (lost or double-applied "
     "update/compensation)"),
    ("faults", {"final": {"acct0": 3}},
     "update double-applied: acct0 converged to 3 but only 2 "
     "increments were attempted"),
    # What the servers recorded, whatever the scenario.
    ("elect", {"trace_epsilon_breaches": [(2, 5)]},
     "server trace shows epsilon breach: bounded query (limit=2) "
     "recorded inconsistency 5"),
    ("faults", {"degraded_flips": 0},
     "partition never visible to an operator: 0 degraded flips across "
     "1 partition(s) held past the detector"),
    ("wan", {"degraded_flips": 0},
     "partition never visible to an operator: 0 degraded flips across "
     "1 partition(s) held past the detector"),
    # Convergence.
    ("faults", {"converged": False},
     "replicas did not converge after faults healed"),
    ("rejoin", {"converged": False},
     "replicas did not reconverge after the rejoin"),
    ("migrate", {"converged": False},
     "replicas did not converge after the migration"),
    ("elect", {"converged": False},
     "replicas did not reconverge after the failover"),
    ("wan", {"converged": False},
     "regions did not reconverge after the heal"),
    ("saga", {"converged": False},
     "replicas did not converge after the compensation storm"),
    # faults
    ("faults", {"epsilon_violations": [(2, 5)]},
     "epsilon budget breached: query with epsilon=2 observed "
     "inconsistency 5"),
    ("faults", {"strict_probe": (0.01, "")},
     "partitioned epsilon=0 query did not fail with UNAVAILABLE "
     "(got '')"),
    ("faults", {"strict_probe": (1.5, "UNAVAILABLE")},
     "partitioned epsilon=0 query took 1.50s to fail (must be < 1 s)"),
    ("faults", {"partition_bounded_ok": False},
     "bounded query did not answer during the partition"),
    # rejoin
    ("rejoin", {"catchup_installs": 0},
     "wiped replica rejoined without a snapshot install (full replay "
     "should have been impossible)"),
    ("rejoin", {"victim_acked_after": 0},
     "rejoined replica acknowledged no new updates"),
    # migrate
    ("migrate", {"epoch_before": 1},
     "shard-map epoch did not advance (1 -> 1)"),
    ("migrate", {"new_group_installs": 2},
     "replacement group installed 2 snapshot(s), expected one per "
     "replica (3) — the cutover bypassed the rejoin machinery"),
    ("migrate", {"old_group_refuses": False},
     "fenced-out group still serves its old shard instead of refusing "
     "WRONG_SHARD"),
    ("migrate", {"strict_read_ok": False},
     "strict (epsilon=0) read of a migrated key failed after the "
     "cutover"),
    # elect
    ("elect", {"epoch_after": 0, "resynced_epoch": 0,
               "leader_views": {}},
     "crashing the sequencer did not trigger an election (epoch stayed "
     "at 0)"),
    ("elect", {"new_leader": "site0"},
     "leadership did not move off the crashed sequencer"),
    ("elect", {"blackout_seconds": 16.0},
     "failover blackout 16.00s exceeded the 15.0s budget"),
    ("elect", {"stale_probe": ("", 0)},
     "SPLIT BRAIN: resurrected leader granted an order token at stale "
     "epoch 0 (current epoch 1)"),
    ("elect", {"resynced_epoch": 0},
     "resurrected leader never adopted the new epoch (stuck at 0, "
     "cluster at 1)"),
    ("elect", {"leader_views": VIEWS},
     "sites disagree on leadership at quiescence: %s" % VIEWS),
    ("elect", {"revenant_acked": 0},
     "no update routed through the resurrected ex-leader was "
     "acknowledged"),
    # wan
    ("wan", {"strict_probes": {"region1": (0.01, "UNAVAILABLE")}},
     "no strict probe recorded in region region0"),
    ("wan", {"strict_probes": {"region0": (0.01, ""),
                               "region1": (0.01, "UNAVAILABLE")}},
     "epsilon=0 read answered in partitioned region region0 (must "
     "refuse)"),
    ("wan", {"strict_probes": {"region0": (1.5, "UNAVAILABLE"),
                               "region1": (0.01, "UNAVAILABLE")}},
     "epsilon=0 refusal in region region0 took 1.50s (budget 1.0s)"),
    ("wan", {"bounded_probes": {"region0": None, "region1": 0}},
     "bounded read went unavailable in partitioned region region0"),
    ("wan", {"partition_acked": {"region0": 0, "region1": 5}},
     "no update acked in region region0 during the partition "
     "(asynchronous writes must stay live)"),
    ("wan", {"fault_counts": {"delayed": 0}},
     "WAN latency model never engaged (no delayed frames)"),
    # saga
    ("saga", {"anomalies": ["abort of saga-1 compensated [], expected "
                            "['site0:3']"]},
     "abort of saga-1 compensated [], expected ['site0:3']"),
    ("saga", {"update_failures": 2},
     "2 updates failed on a clean network (every submitted update must "
     "ack)"),
    ("saga", {"compensations_total": 0},
     "silent zero: 5 sagas aborted but no replica counted a single "
     "compensation"),
    ("saga", {"steps_compensated": 0},
     "abort decides reported no compensated step tids"),
    ("saga", {"reissue_decided": 1},
     "re-issued abort decides decided 1 tid(s) again — decisions are "
     "not idempotent"),
    ("saga", {"reissue_compensation_delta": 2},
     "compensation counters moved by 2 across the decide re-issue — a "
     "compensation was applied twice"),
    ("saga", {"honest_probe": None}, "abort=True probe never ran"),
    ("saga", {"honest_probe": ("OVERLOADED", ("site0:9",))},
     "abort=True update failed with 'OVERLOADED', not the typed "
     "COMPENSATED code"),
    ("saga", {"honest_probe": ("COMPENSATED", ())},
     "COMPENSATED failure did not name the undone tid(s)"),
    ("saga", {"catchup_installs": 0},
     "wiped replica rejoined without a snapshot install"),
]


class TestOracle:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_clean_report_has_no_findings(self, name):
        report = planted(name)
        assert report.violations() == []
        assert report.ok
        assert "all invariants held" in report.render()

    @pytest.mark.parametrize(
        "name,facts,finding",
        FINDINGS,
        ids=["%s-%s" % (n, "+".join(f)) for n, f, _ in FINDINGS],
    )
    def test_planted_fact_is_found(self, name, facts, finding):
        report = planted(name, **facts)
        assert report.violations() == [finding]
        assert not report.ok
        assert "INVARIANT VIOLATIONS (1):\n  - " + finding in report.render()

    def test_every_finding_in_the_module_is_planted(self):
        """A check added to (or kept in) ``chaos.py`` without a row
        above fails here: the longest literal stretch of every
        ``out.append("...")`` must occur in some planted finding."""
        tree = ast.parse(pathlib.Path(chaos.__file__).read_text())
        messages = []
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and getattr(node.func.value, "id", "") == "out"
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.BinOp):
                arg = arg.left
            if isinstance(arg, ast.Constant):
                messages.append(arg.value)
        assert len(messages) >= 35
        for message in messages:
            stretch = max(re.split(r"%[.\d]*[a-z]", message), key=len)
            assert any(stretch in f for _, _, f in FINDINGS), message

    def test_diverged_run_is_checked_and_explained_per_site(self):
        """Not converged: the ledger is held against every distinct
        site state (findings name the sites) and the render shows each
        site's applied count, backlog and election view."""
        stats = {
            "applied": 1,
            "outbound_backlog": {"site1": 0},
            "election": {"epoch": 2, "leader": "site2", "base": 21},
        }
        report = planted(
            "faults",
            converged=False,
            final={"acct0": 2},
            site_final={
                "site0": {"acct0": 2},
                "site1": {"acct0": 2},
                "site2": {"acct0": 1},
            },
            site_stats=dict.fromkeys(("site0", "site1", "site2"), stats),
        )
        assert report.violations() == [
            "acked update lost: %s (at site2)" % (LOST % "acct0"),
            "replicas did not converge after faults healed",
        ]
        text = report.render()
        assert "converged: NO" in text
        assert (
            "site2: {'acct0': 1} applied=1 backlog={'site1': 0} "
            "election=(epoch 2, leader site2, base 21)"
        ) in text


class TestDocs:
    def test_scenario_table_matches_the_code(self):
        """The scenario table in ``docs/LIVE.md`` is ``SCENARIOS`` and
        the CLI's flag table, mechanically."""
        live_md = pathlib.Path(__file__).parents[2] / "docs" / "LIVE.md"
        section = (
            live_md.read_text()
            .partition("### The chaos harness")[2]
            .partition("\n## ")[0]
        )
        rows = re.findall(r"^\| `(\w+)` \|.*\| `([^`|]*)` \|$", section, re.M)
        assert [name for name, _ in rows] == list(SCENARIOS)
        assert list(_CHAOS_FLAGS) == list(SCENARIOS)  # --scenario's choices
        for name, flags in rows:
            documented = {
                flag.lstrip("-").replace("-", "_") for flag in flags.split()
            }
            assert documented == set(_CHAOS_FLAGS[name]), name


class TestDegradedMode:
    def test_partition_degrades_honestly_and_recovers(self, tmp_path):
        """During a partition: epsilon>0 reads answer with bounded
        error, epsilon=0 reads fail typed-UNAVAILABLE in under a
        second; after heal, strict reads work again."""

        async def scenario():
            plan = FaultPlan(seed=1)  # no rate faults: pure partition
            cluster = LiveCluster(
                n_sites=3,
                method="commu",
                data_dir=tmp_path,
                faults=plan,
                heartbeat_interval=0.1,
                suspect_after=0.4,
            )
            await cluster.start()
            try:
                c2 = await cluster.client("site2")
                await c2.increment("x", 1)
                await cluster.settle(timeout=30)

                cluster.partition([["site2"], ["site0", "site1"]])
                await asyncio.sleep(0.8)  # > suspect_after: detector trips

                # Updates keep committing at the isolated replica...
                await c2.increment("x", 1)
                # ...bounded reads keep answering with honest error...
                value = await c2.read("x", Consistency.BOUNDED(100))
                assert value == 2
                # ...and strict reads refuse fast instead of hanging.
                t0 = time.monotonic()
                with pytest.raises(LiveETFailed) as excinfo:
                    await c2.read("x", Consistency.STRICT, timeout=5.0)
                assert time.monotonic() - t0 < 1.0
                assert excinfo.value.code == "UNAVAILABLE"
                assert excinfo.value.unavailable

                # Health is visible in stats.
                stats = await c2.stats()
                assert stats["degraded"] is True
                assert stats["peers"]["site0"]["alive"] is False
                assert stats["peers"]["site0"]["staleness"] >= 0.4

                cluster.heal()
                await cluster.settle(timeout=30)
                assert await cluster.converged()
                # Strict service restored once peers are back.
                assert await c2.read("x", Consistency.STRICT) == 2
                stats = await c2.stats()
                assert stats["degraded"] is False
            finally:
                await cluster.stop()

        run(scenario())

    def test_strict_query_in_flight_when_partition_starts(self, tmp_path):
        """A strict query already blocked on divergence control gets
        aborted with UNAVAILABLE when the partition is detected — not
        left hanging until the 30 s query timeout."""

        async def scenario():
            plan = FaultPlan(seed=2)
            cluster = LiveCluster(
                n_sites=3,
                method="commu",
                data_dir=tmp_path,
                faults=plan,
                heartbeat_interval=0.1,
                suspect_after=0.4,
            )
            await cluster.start()
            try:
                c2 = await cluster.client("site2")
                # Sever first so the peers' acks can never release the
                # update's lock-counters...
                cluster.partition([["site2"], ["site0", "site1"]])
                await c2.increment("x", 1)
                # ...then issue the strict query while the detector has
                # not yet tripped: it blocks, then aborts on detection.
                t0 = time.monotonic()
                with pytest.raises(LiveETFailed) as excinfo:
                    await c2.read("x", Consistency.STRICT, timeout=10.0)
                elapsed = time.monotonic() - t0
                assert excinfo.value.code == "UNAVAILABLE"
                assert elapsed < 2.0  # detection + abort, not timeout
                cluster.heal()
                await cluster.settle(timeout=30)
            finally:
                await cluster.stop()

        run(scenario())
