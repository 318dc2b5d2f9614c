"""Chaos-harness integration tests: the paper's invariants under a
seeded schedule of drops, delays, duplications, reordering, one
partition, and one crash/restart — all on a real TCP cluster.

These are the acceptance tests for the robustness subsystem: a run is
correct iff no acknowledged update is lost, no query exceeds its
epsilon budget, the partitioned replica degrades honestly (bounded
queries answer, ``epsilon = 0`` fails fast with ``UNAVAILABLE``), and
all replicas converge to identical state once faults heal.
"""

import asyncio
import time

import pytest

from repro.consistency import Consistency
from repro.live import (
    ChaosConfig,
    FaultPlan,
    LinkFaults,
    LiveCluster,
    LiveETFailed,
    run_chaos,
)


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
    settle_timeout=60.0,
)


class TestChaosInvariants:
    def test_seeded_chaos_run_holds_every_invariant(self, tmp_path):
        report = run(run_chaos(SMOKE_CONFIG, data_dir=tmp_path))
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

    def test_chaos_persists_observability_artifacts(self, tmp_path):
        """With ``artifacts_dir`` the run leaves per-site Prometheus
        text, combined metrics JSON, and the merged lifecycle trace on
        disk, and the trace-derived checks populate the report: the
        partition shows up as degraded gauge flips and bounded queries
        never recorded inconsistency above their limit."""
        import json

        from repro.obs.trace import load_trace_jsonl

        artifacts = tmp_path / "artifacts"
        report = run(
            run_chaos(
                SMOKE_CONFIG,
                data_dir=tmp_path / "data",
                artifacts_dir=artifacts,
            )
        )
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
        stream_one = [one.frame_fate("site0", "site1") for _ in range(64)]
        stream_two = [two.frame_fate("site0", "site1") for _ in range(64)]
        assert stream_one == stream_two


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
