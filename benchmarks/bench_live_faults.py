"""Live runtime under faults — availability and invariants during chaos.

The live analogue of E9 (availability during a partition), escalated:
a real 3-replica TCP cluster runs a seeded schedule of frame drops,
delays, duplications, and reordering, plus one network partition and
(for COMMU) one crash/restart — while a concurrent update/query
workload keeps hammering it.  Reported per method: update
acknowledgement rate under fault pressure, bounded-query availability,
the fail-fast latency of ``epsilon = 0`` reads at the partitioned
replica, the injected fault counts, and the invariant verdict (no
acked-update loss, no epsilon breach, convergence after heal).

ORDUP runs without the crash phase in faults mode: the chaos crash is
uncoordinated, and an origin that dies between order-token grant and
durable logging leaves a sequence gap that stalls the global order (a
documented liveness limitation; see docs/LIVE.md).  Sequencer crashes
are measured separately by ``--mode elect``, which kills the elected
leader at quiescence and reports the *failover blackout window* —
crash to first survivor-acknowledged update, spanning failure
detection, the epoch-bumping election, and order re-acquisition —
across several seeds, persisting the numbers to
``BENCH_live_elect.json`` with ``--json``.

Each run persists its observability artifacts (per-site Prometheus
text, combined metrics JSON, merged lifecycle trace) under
``BENCH_live_faults_artifacts/<method>/`` when run standalone with
``--artifacts``.

``--mode saga`` measures COMPE compensation-storm recovery: sagas are
submitted across a 3-replica cluster, roughly half are aborted
(backward recovery fans compensating operations out to every replica),
and one replica is disk-wipe crashed in the middle of the storm.
Reported per seed: sagas committed/aborted, compensations applied
cluster-wide, the idempotence re-issue delta (must be zero), the victim's snapshot-install rejoin,
and the exact-convergence verdict.  ``--json`` persists the numbers to
``BENCH_live_saga.json``.

Standalone:  PYTHONPATH=src python benchmarks/bench_live_faults.py
             PYTHONPATH=src python benchmarks/bench_live_faults.py \\
                 --artifacts BENCH_live_faults_artifacts
             PYTHONPATH=src python benchmarks/bench_live_faults.py \\
                 --mode elect --json
             PYTHONPATH=src python benchmarks/bench_live_faults.py \\
                 --mode saga --json
Under pytest: pytest benchmarks/bench_live_faults.py --benchmark-only
"""

import json
import pathlib
import time

from repro.live import (
    ChaosConfig,
    ElectConfig,
    SagaConfig,
    run_scenario_sync,
)
from repro.live.chaos import (
    ABORT_FRACTION,
    BLACKOUT_LIMIT,
    ELECT_HEARTBEAT_INTERVAL,
    ELECT_SUSPECT_AFTER,
)

SEED = 7
METHODS = ("commu", "ordup")


def _config(method):
    return ChaosConfig(
        seed=SEED,
        n_sites=3,
        method=method,
        n_updates=120,
        n_queries=36,
        workload_duration=3.5,
        drop=0.08,
        duplicate=0.05,
        reorder=0.10,
        delay_max=0.012,
        partition_at=0.3,
        partition_duration=1.8,
        crash=(method == "commu"),
        crash_at=2.4,
        crash_duration=0.4,
    )


def run_live_faults(artifacts_dir=None):
    """Run the chaos scenario per method; return (text, reports)."""
    reports = {}
    for method in METHODS:
        method_artifacts = (
            pathlib.Path(artifacts_dir) / method
            if artifacts_dir is not None
            else None
        )
        reports[method] = run_scenario_sync(
            _config(method), artifacts_dir=method_artifacts
        )
    lines = [
        "Live runtime under faults: seeded chaos (seed=%d), 3 replicas, "
        "drops+delays+dups+reorder, 1 partition, crash/restart on COMMU"
        % SEED,
        "",
        "%-8s %10s %10s %14s %12s %10s"
        % (
            "method",
            "acked",
            "answered",
            "eps0 refuse",
            "faults",
            "invariants",
        ),
    ]
    for method in METHODS:
        r = reports[method]
        injected = sum(
            r.fault_counts.get(k, 0)
            for k in ("dropped", "duplicated", "delayed", "reordered")
        )
        elapsed, code = r.strict_probe if r.strict_probe else (0.0, "?")
        lines.append(
            "%-8s %6d/%-3d %6d/%-3d %7.0fms %s %9d %10s"
            % (
                method.upper(),
                sum(r.acked.values()),
                sum(r.attempted.values()),
                r.queries_ok,
                r.queries_ok + r.bounded_failures,
                elapsed * 1e3,
                code[:4],
                injected,
                "held" if r.ok else "BROKEN",
            )
        )
    for method in METHODS:
        problems = reports[method].violations()
        for problem in problems:
            lines.append("  %s: %s" % (method.upper(), problem))
    return "\n".join(lines), reports


ELECT_SEEDS = (7, 11, 23)


def run_live_elect(artifacts_dir=None):
    """Sequencer failover across seeds; return (text, reports, json)."""
    reports = []
    for seed in ELECT_SEEDS:
        seed_artifacts = (
            pathlib.Path(artifacts_dir) / ("seed%d" % seed)
            if artifacts_dir is not None
            else None
        )
        reports.append(
            run_scenario_sync(
                ElectConfig(seed=seed), artifacts_dir=seed_artifacts
            )
        )
    config = reports[0].config
    lines = [
        "Sequencer failover: 3 replicas (ORDUP), leader killed at "
        "quiescence, blackout = crash -> first survivor-acked update "
        "(heartbeat %.2fs, suspect %.2fs, dead at 3x)"
        % (ELECT_HEARTBEAT_INTERVAL, ELECT_SUSPECT_AFTER),
        "",
        "%-6s %10s %14s %12s %10s %10s"
        % ("seed", "blackout", "leader", "epoch", "acked", "invariants"),
    ]
    for r in reports:
        lines.append(
            "%-6d %8.2fs %14s %12d %6d/%-3d %10s"
            % (
                r.config.seed,
                r.blackout_seconds,
                "%s>%s" % (r.old_leader, r.new_leader or "?"),
                r.epoch_after,
                sum(r.acked.values()),
                sum(r.attempted.values()),
                "held" if r.ok else "BROKEN",
            )
        )
    for r in reports:
        for problem in r.violations():
            lines.append("  seed %d: %s" % (r.config.seed, problem))
    blackouts = [r.blackout_seconds for r in reports]
    lines.append("")
    lines.append(
        "blackout window: min %.2fs / mean %.2fs / max %.2fs over %d "
        "seeds (budget %.1fs)"
        % (
            min(blackouts),
            sum(blackouts) / len(blackouts),
            max(blackouts),
            len(blackouts),
            BLACKOUT_LIMIT,
        )
    )
    payload = {
        "benchmark": "live_elect",
        "method": "ordup",
        "n_sites": config.n_sites,
        "heartbeat_interval": ELECT_HEARTBEAT_INTERVAL,
        "suspect_after": ELECT_SUSPECT_AFTER,
        "blackout_limit": BLACKOUT_LIMIT,
        "blackout_seconds": {
            "min": min(blackouts),
            "mean": sum(blackouts) / len(blackouts),
            "max": max(blackouts),
        },
        "per_seed": [
            {
                "seed": r.config.seed,
                "blackout_seconds": r.blackout_seconds,
                "old_leader": r.old_leader,
                "new_leader": r.new_leader,
                "epoch_after": r.epoch_after,
                "acked": sum(r.acked.values()),
                "attempted": sum(r.attempted.values()),
                "update_failures": r.update_failures,
                "converged": r.converged,
                "violations": r.violations(),
            }
            for r in reports
        ],
    }
    return "\n".join(lines), reports, payload


SAGA_SEEDS = (7, 11, 23)


def run_live_saga(artifacts_dir=None):
    """COMPE compensation storm across seeds; (text, reports, json)."""
    reports = []
    for seed in SAGA_SEEDS:
        seed_artifacts = (
            pathlib.Path(artifacts_dir) / ("seed%d" % seed)
            if artifacts_dir is not None
            else None
        )
        reports.append(
            run_scenario_sync(
                SagaConfig(seed=seed), artifacts_dir=seed_artifacts
            )
        )
    config = reports[0].config
    lines = [
        "COMPE compensation storm: %d replicas, %d sagas x %d steps, "
        "~%d%% aborted, victim disk-wiped mid-storm, snapshot rejoin"
        % (
            config.n_sites,
            config.n_sagas,
            config.steps_per_saga,
            int(ABORT_FRACTION * 100),
        ),
        "",
        "%-6s %12s %12s %10s %10s %10s"
        % (
            "seed",
            "aborted",
            "compensate",
            "reissue",
            "wall",
            "invariants",
        ),
    ]
    for r in reports:
        lines.append(
            "%-6d %6d/%-5d %12d %10d %9.1fs %10s"
            % (
                r.config.seed,
                r.sagas_aborted,
                r.sagas_aborted + r.sagas_committed,
                r.compensations_total,
                r.reissue_decided + r.reissue_compensation_delta,
                r.wall_seconds,
                "held" if r.ok else "BROKEN",
            )
        )
    for r in reports:
        for problem in r.violations():
            lines.append("  seed %d: %s" % (r.config.seed, problem))
    total_comp = sum(r.compensations_total for r in reports)
    lines.append("")
    lines.append(
        "%d compensations applied across %d seeds; every run converged "
        "to the exact committed-effects prediction through the "
        "mid-storm disk wipe" % (total_comp, len(reports))
        if all(r.ok for r in reports)
        else "%d compensations applied across %d seeds; INVARIANT "
        "VIOLATIONS above" % (total_comp, len(reports))
    )
    payload = {
        "benchmark": "live_saga",
        "method": "compe",
        "n_sites": config.n_sites,
        "n_sagas": config.n_sagas,
        "steps_per_saga": config.steps_per_saga,
        "abort_fraction": ABORT_FRACTION,
        "per_seed": [
            {
                "seed": r.config.seed,
                "sagas_committed": r.sagas_committed,
                "sagas_aborted": r.sagas_aborted,
                "steps_compensated": r.steps_compensated,
                "compensations_total": r.compensations_total,
                "reissue_decided": r.reissue_decided,
                "reissue_compensation_delta": (
                    r.reissue_compensation_delta
                ),
                "catchup_installs": r.catchup_installs,
                "converged": r.converged,
                "wall_seconds": r.wall_seconds,
                "violations": r.violations(),
            }
            for r in reports
        ],
    }
    return "\n".join(lines), reports, payload


def test_live_saga(benchmark, show):
    from conftest import run_once

    text, reports, payload = run_once(benchmark, run_live_saga)
    show(text)

    for report in reports:
        assert report.violations() == [], report.render()
        # The storm was real: aborts happened and fanned compensating
        # operations out to every replica.
        assert report.sagas_aborted > 0
        assert report.compensations_total > 0
        # Re-issuing every abort decision moved nothing: replay of the
        # compensation path is idempotent.
        assert report.reissue_decided == 0
        assert report.reissue_compensation_delta == 0


def test_live_elect(benchmark, show):
    from conftest import run_once

    text, reports, payload = run_once(benchmark, run_live_elect)
    show(text)

    for report in reports:
        assert report.violations() == [], report.render()
        # The blackout window is bounded well inside the budget: the
        # detector needs 3x suspect_after to declare the leader dead,
        # and everything after (election + lease + retry) is fast.
        assert report.blackout_seconds <= BLACKOUT_LIMIT
        assert report.epoch_after > report.epoch_before
        assert report.new_leader and report.new_leader != report.old_leader


def test_live_faults(benchmark, show):
    from conftest import run_once

    text, reports = run_once(benchmark, run_live_faults)
    show(text)

    for method in METHODS:
        report = reports[method]
        assert report.violations() == [], report.render()
        # The run exercised real fault pressure, not a clean network.
        assert report.fault_counts["dropped"] > 0
        assert report.fault_counts["blocked"] > 0
        # Honest degradation was observed at the partitioned replica.
        elapsed, code = report.strict_probe
        assert code == "UNAVAILABLE" and elapsed < 1.0
        assert report.partition_bounded_ok is True
        # Availability: fault pressure must not collapse throughput —
        # the overwhelming majority of updates still acknowledge.
        acked = sum(report.acked.values())
        attempted = sum(report.attempted.values())
        assert acked >= 0.9 * attempted


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode", choices=("faults", "elect", "saga"),
        default="faults",
        help="'faults' = chaos availability run (default); "
        "'elect' = sequencer-failover blackout window across seeds; "
        "'saga' = COMPE compensation-storm recovery across seeds",
    )
    parser.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="persist per-run metrics + trace artifacts under "
        "DIR/<method or seed>/ (faults, elect, and saga modes)",
    )
    parser.add_argument(
        "--json", metavar="FILE", nargs="?", const="", default=None,
        help="elect/saga modes: write the numbers to FILE (default "
        "BENCH_live_elect.json / BENCH_live_saga.json)",
    )
    args = parser.parse_args()
    if args.json == "":
        # Bare --json: pick the mode's canonical artifact name.
        args.json = "BENCH_live_%s.json" % args.mode
    started = time.monotonic()
    if args.mode == "saga":
        text, _, payload = run_live_saga(artifacts_dir=args.artifacts)
        print(text)
        if args.json:
            pathlib.Path(args.json).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            print("\nwrote %s" % args.json)
    elif args.mode == "elect":
        text, _, payload = run_live_elect(artifacts_dir=args.artifacts)
        print(text)
        if args.json:
            pathlib.Path(args.json).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            print("\nwrote %s" % args.json)
    else:
        text, reports = run_live_faults(artifacts_dir=args.artifacts)
        print(text)
        if args.artifacts:
            for method in METHODS:
                print(
                    "%s artifacts: %s"
                    % (method, reports[method].artifacts.get("dir", "-"))
                )
    print("\ntotal wall time: %.1fs" % (time.monotonic() - started))
