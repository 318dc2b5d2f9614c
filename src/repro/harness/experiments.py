"""Registered experiments: one per paper table plus analytic claims.

Each experiment function returns ``(text, data)``: a rendered table in
the paper's layout and the structured values the tests assert on.
The experiment ids match DESIGN.md section 4 and EXPERIMENTS.md: T1–T3
and E1–E10 reproduce the paper, A1–A4 are ablations and X1–X5 make
the paper's section 5 contrasts executable.  ``python -m repro run
all -o results`` writes every one of them to ``results/``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..core.divergence import (
    BasicTimestampDC,
    DivergenceControl,
    OptimisticDC,
    TwoPhaseLockingDC,
)
from ..core.history import History
from ..core.locks import CLASSIC_2PL, COMMU_TABLE, ORDUP_TABLE
from ..core.operations import IncrementOp, MultiplyOp, ReadOp, WriteOp
from ..core.scheduler import LocalScheduler
from ..core.serializability import (
    is_epsilon_serial,
    is_serial,
    is_serializable,
)
from ..core.transactions import (
    EpsilonSpec,
    EpsilonTransaction,
    ETStatus,
    QueryET,
    UNLIMITED,
    UpdateET,
    reset_tid_counter,
)
from ..replica.coherency import (
    PrimaryCopy,
    QuorumConsensus,
    ReadOneWriteAll2PC,
)
from ..replica.base import ReplicatedSystem, SystemConfig
from ..replica.host import (
    CommutativeOperations,
    CompensationBased,
    OrderedUpdates,
    ReadIndependentUpdates,
)
from ..replica.merge import LoggedOp, merge_partition_logs
from ..replica.quasicopy import ClosenessSpec, QuasiCopies
from ..replica.temporal import DeadlineTracker
from ..sim.events import Simulator
from ..sim.failures import FailureInjector, PartitionEvent
from ..sim.network import ConstantLatency, UniformLatency
from ..storage.kv import KeyValueStore
from ..workload.generator import WorkloadSpec
from .audit import AuditReport, audit
from .report import render_series, render_table
from .runner import audited, divergence_trace, run_experiment

__all__ = [
    "experiment_table1",
    "experiment_table2",
    "experiment_table3",
    "experiment_e1_example_log",
    "experiment_e2_scaleup",
    "experiment_e3_epsilon_sweep",
    "experiment_e4_convergence",
    "experiment_e5_ordup",
    "experiment_e6_commu",
    "experiment_e7_ritu",
    "experiment_e8_compe",
    "experiment_e9_availability",
    "experiment_e10_latency",
    "experiment_a1_lock_tables",
    "experiment_a2_ordering",
    "experiment_a3_compe_delay",
    "experiment_a4_dc_engines",
    "experiment_x1_value_epsilon",
    "experiment_x2_quasicopies",
    "experiment_x3_partition_merge",
    "experiment_x4_deadlines",
    "experiment_x5_bandwidth",
    "EXPERIMENTS",
]


_PAPER_METHODS = (
    OrderedUpdates,
    CommutativeOperations,
    ReadIndependentUpdates,
    CompensationBased,
)


# ----------------------------------------------------------------------
# T1 — Table 1: replica-control method characteristics
# ----------------------------------------------------------------------


def experiment_table1() -> Tuple[str, Dict[str, Dict[str, str]]]:
    """Regenerate Table 1 from the methods' trait declarations.

    The traits are cross-checked elsewhere (tests probe the behaviors);
    here we render the live declarations in the paper's layout.
    """
    data: Dict[str, Dict[str, str]] = {}
    for cls in _PAPER_METHODS:
        traits = cls.traits
        data[traits.name] = {
            "Kind of Restriction": traits.restriction,
            "Applicability": traits.direction.capitalize() + "s",
            "Asynchronous Propagation": (
                "Query & Update"
                if traits.async_update_propagation
                else "Query only"
            ),
            "Sorting Time": traits.sorting_time,
        }
    names = [cls.traits.name for cls in _PAPER_METHODS]
    dims = [
        "Kind of Restriction",
        "Applicability",
        "Asynchronous Propagation",
        "Sorting Time",
    ]
    rows = [[data[name][dim] for name in names] for dim in dims]
    text = render_table(
        "Table 1: Replica-Control Methods", names, rows, row_labels=dims
    )
    return text, data


# ----------------------------------------------------------------------
# T2/T3 — Tables 2 and 3: 2PL compatibility for ETs
# ----------------------------------------------------------------------


def experiment_table2() -> Tuple[str, List[Tuple[str, List[str]]]]:
    """Table 2 derived from the live ORDUP lock table."""
    rows = ORDUP_TABLE.rows()
    text = render_table(
        "Table 2: 2PL Compatibility for ORDUP ETs",
        ["RU", "WU", "RQ"],
        [cells for _, cells in rows],
        row_labels=[label for label, _ in rows],
    )
    return text, rows


def experiment_table3() -> Tuple[str, List[Tuple[str, List[str]]]]:
    """Table 3 derived from the live COMMU lock table."""
    rows = COMMU_TABLE.rows()
    text = render_table(
        "Table 3: 2PL Compatibility for COMMU ETs",
        ["RU", "WU", "RQ"],
        [cells for _, cells in rows],
        row_labels=[label for label, _ in rows],
    )
    return text, rows


# ----------------------------------------------------------------------
# E1 — the paper's worked example log (1)
# ----------------------------------------------------------------------


def experiment_e1_example_log() -> Tuple[str, Dict[str, bool]]:
    """Check the paper's log (1): epsilon-serial but not serial.

    R1(a) W1(b) W2(b) R3(a) W2(a) R3(b) with U1 = {R1(a), W1(b)},
    U2 = {W2(b), W2(a)}, Q3 = {R3(a), R3(b)}.
    """
    reset_tid_counter()
    u1 = UpdateET([ReadOp("a"), WriteOp("b", 1)])
    u2 = UpdateET([WriteOp("b", 2), WriteOp("a", 2)])
    q3 = QueryET([ReadOp("a"), ReadOp("b")])
    history = History()
    for et in (u1, u2, q3):
        history.register(et)
    history.record(u1.tid, ReadOp("a"))
    history.record(u1.tid, WriteOp("b", 1))
    history.record(u2.tid, WriteOp("b", 2))
    history.record(q3.tid, ReadOp("a"))
    history.record(u2.tid, WriteOp("a", 2))
    history.record(q3.tid, ReadOp("b"))

    data = {
        "full_log_serial": is_serial(history),
        "full_log_sr": is_serializable(history),
        "epsilon_serial": is_epsilon_serial(history),
        "update_projection_serial": is_serial(history.without_queries()),
    }
    rows = [[k, v] for k, v in data.items()]
    text = render_table(
        "E1: paper log (1) R1(a)W1(b)W2(b)R3(a)W2(a)R3(b)",
        ["property", "value"],
        rows,
    )
    return text, data


# ----------------------------------------------------------------------
# Shared sweep helpers
# ----------------------------------------------------------------------


def _method_factories(
    latency: float = 1.0,
) -> Dict[str, Tuple[Callable[[], Any], str]]:
    """name -> (factory, workload style) for comparative sweeps.

    ROWA-2PC's lock timeout and retry backoff are scaled with link
    latency, as any deployed deadline-2PC would be — otherwise every
    prepare would time out before its messages even arrive.
    """

    def rowa() -> ReadOneWriteAll2PC:
        return ReadOneWriteAll2PC(
            lock_timeout=max(8.0, 6.0 * latency),
            backoff=max(4.0, 2.0 * latency),
        )

    return {
        "ORDUP": (OrderedUpdates, "commutative"),
        "COMMU": (CommutativeOperations, "commutative"),
        "RITU": (ReadIndependentUpdates, "blind"),
        "ROWA-2PC": (rowa, "commutative"),
        "QUORUM": (QuorumConsensus, "blind"),
        "PRIMARY": (PrimaryCopy, "commutative"),
    }


# ----------------------------------------------------------------------
# E2 — throughput/latency vs number of replicas
# ----------------------------------------------------------------------


def experiment_e2_scaleup(
    site_counts: Tuple[int, ...] = (2, 4, 8),
    count: int = 80,
    latency: float = 2.0,
) -> Tuple[str, Dict[str, Dict[int, Dict[str, float]]]]:
    """Async vs sync update latency/throughput as replicas grow."""
    data: Dict[str, Dict[int, Dict[str, float]]] = {}
    for name, (factory, style) in _method_factories(latency).items():
        data[name] = {}
        for n in site_counts:
            config = SystemConfig(
                n_sites=n,
                seed=100 + n,
                latency=ConstantLatency(latency),
                initial=tuple(("x%d" % i, 0) for i in range(10)),
            )
            spec = WorkloadSpec(
                n_keys=10,
                count=count,
                query_fraction=0.3,
                style=style,
                epsilon=UNLIMITED,
                mean_interarrival=max(1.5, latency),
            )
            result = run_experiment(factory, config, spec, workload_seed=3)
            data[name][n] = {
                "update_latency": result.metrics.update_latency_mean,
                "throughput": result.metrics.throughput,
                "converged": float(result.converged),
            }
    xs = list(site_counts)
    series = {
        name: [round(data[name][n]["update_latency"], 2) for n in xs]
        for name in data
    }
    text = render_series(
        "E2: mean update commit latency vs replicas", "n_sites", xs, series
    )
    return text, data


# ----------------------------------------------------------------------
# E3 — epsilon sweep: error bounded, eps=0 gives SR
# ----------------------------------------------------------------------


def experiment_e3_epsilon_sweep(
    epsilons: Tuple[float, ...] = (0, 1, 2, 4, UNLIMITED),
    count: int = 100,
) -> Tuple[str, Dict[float, Dict[str, float]]]:
    """Measured query inconsistency vs epsilon limit (COMMU)."""
    data: Dict[float, Dict[str, float]] = {}
    for eps in epsilons:
        config = SystemConfig(
            n_sites=4,
            seed=7,
            latency=ConstantLatency(2.0),
            initial=tuple(("x%d" % i, 0) for i in range(6)),
        )
        spec = WorkloadSpec(
            n_keys=6,
            count=count,
            query_fraction=0.5,
            style="commutative",
            epsilon=eps,
            mean_interarrival=0.6,
        )
        result = run_experiment(
            CommutativeOperations, config, spec, workload_seed=11
        )
        data[eps] = {
            "max_inconsistency": float(result.metrics.inconsistency_max),
            "mean_inconsistency": result.metrics.inconsistency_mean,
            "waits": float(result.metrics.waits),
            "within_bound": result.metrics.within_bound_fraction,
            "error_within_overlap": float(result.error_within_overlap),
            "query_latency": result.metrics.query_latency_mean,
        }
    xs = [("inf" if e == UNLIMITED else int(e)) for e in epsilons]
    series = {
        "max_err": [data[e]["max_inconsistency"] for e in epsilons],
        "mean_err": [
            round(data[e]["mean_inconsistency"], 2) for e in epsilons
        ],
        "waits": [data[e]["waits"] for e in epsilons],
        "qry_lat": [round(data[e]["query_latency"], 2) for e in epsilons],
    }
    text = render_series(
        "E3: query error vs epsilon limit (COMMU)", "epsilon", xs, series
    )
    return text, data


# ----------------------------------------------------------------------
# E4 — divergence over time and convergence at quiescence
# ----------------------------------------------------------------------


def experiment_e4_convergence(
    count: int = 60,
) -> Tuple[str, Dict[str, Any]]:
    """Divergence rises during a partition, falls to zero at quiescence."""

    def failures(system) -> None:
        injector = FailureInjector(
            system.sim, system.network, system.sites,
            on_heal=system.kick_queues,
        )
        injector.schedule_partition(
            PartitionEvent(
                (("site0", "site1"), ("site2", "site3")), at=10.0,
                duration=40.0,
            )
        )

    config = SystemConfig(
        n_sites=4,
        seed=21,
        latency=ConstantLatency(1.0),
        retry_interval=4.0,
        initial=tuple(("x%d" % i, 0) for i in range(6)),
    )
    spec = WorkloadSpec(
        n_keys=6,
        count=count,
        query_fraction=0.0,
        style="commutative",
        mean_interarrival=0.8,
    )
    times, divergences, quiescence = divergence_trace(
        CommutativeOperations,
        config,
        spec,
        sample_every=5.0,
        workload_seed=13,
        failures=failures,
    )
    data = {
        "times": times,
        "divergences": divergences,
        "quiescence": quiescence,
        "final_divergence": divergences[-1],
        "peak_divergence": max(divergences),
    }
    series = {"divergence": [round(d, 1) for d in divergences]}
    text = render_series(
        "E4: replica divergence over time (partition 10..50)",
        "t",
        [round(t, 1) for t in times],
        series,
    )
    return text, data


# ----------------------------------------------------------------------
# E5 — ORDUP: query concurrency and update SR under reordering
# ----------------------------------------------------------------------


def experiment_e5_ordup(count: int = 100) -> Tuple[str, Dict[str, Any]]:
    """ORDUP vs strict baseline: free queries, ordered updates."""
    data: Dict[str, Any] = {}
    for label, eps in (("free (eps=inf)", UNLIMITED), ("strict (eps=0)", 0)):
        config = SystemConfig(
            n_sites=4,
            seed=31,
            latency=ConstantLatency(2.0),
            initial=tuple(("x%d" % i, 0) for i in range(6)),
        )
        spec = WorkloadSpec(
            n_keys=6,
            count=count,
            query_fraction=0.5,
            style="mixed",
            epsilon=eps,
            mean_interarrival=0.7,
        )
        result = run_experiment(OrderedUpdates, config, spec, workload_seed=17)
        data[label] = {
            "query_latency": result.metrics.query_latency_mean,
            "max_inconsistency": result.metrics.inconsistency_max,
            "one_copy_sr": result.one_copy_serializable,
            "converged": result.converged,
            "waits": result.metrics.waits,
        }
    rows = [
        [
            label,
            round(d["query_latency"], 2),
            d["max_inconsistency"],
            d["one_copy_sr"],
            d["converged"],
            d["waits"],
        ]
        for label, d in data.items()
    ]
    text = render_table(
        "E5: ORDUP query modes (mixed non-commutative updates)",
        ["mode", "qry_lat", "max_err", "1SR", "converged", "waits"],
        rows,
    )
    return text, data


# ----------------------------------------------------------------------
# E6 — COMMU lock-counter limits and update throttling
# ----------------------------------------------------------------------


def experiment_e6_commu(
    limits: Tuple[float, ...] = (UNLIMITED, 2, 1),
    count: int = 100,
) -> Tuple[str, Dict[Any, Dict[str, float]]]:
    """Lock-counter divergence bounding, query- and update-side."""
    data: Dict[Any, Dict[str, float]] = {}
    for limit in limits:
        config = SystemConfig(
            n_sites=4,
            seed=41,
            latency=ConstantLatency(2.0),
            initial=tuple(("x%d" % i, 0) for i in range(4)),
        )
        spec = WorkloadSpec(
            n_keys=4,
            count=count,
            query_fraction=0.4,
            style="commutative",
            epsilon=2,
            mean_interarrival=0.5,
            skew=0.9,
        )
        result = run_experiment(
            lambda limit=limit: CommutativeOperations(update_limit=limit),
            config,
            spec,
            workload_seed=19,
        )
        data[limit] = {
            "update_latency": result.metrics.update_latency_mean,
            "query_waits": float(result.metrics.waits),
            "max_inconsistency": float(result.metrics.inconsistency_max),
            "throughput": result.metrics.throughput,
            "converged": float(result.converged),
        }
    xs = [("inf" if l == UNLIMITED else int(l)) for l in limits]
    series = {
        "upd_lat": [round(data[l]["update_latency"], 2) for l in limits],
        "waits": [data[l]["query_waits"] for l in limits],
        "max_err": [data[l]["max_inconsistency"] for l in limits],
    }
    text = render_series(
        "E6: COMMU with update lock-counter limits", "limit", xs, series
    )
    return text, data


# ----------------------------------------------------------------------
# E7 — RITU variants
# ----------------------------------------------------------------------


def experiment_e7_ritu(count: int = 100) -> Tuple[str, Dict[str, Any]]:
    """Overwrite vs multiversion RITU; VTNC bounding."""
    data: Dict[str, Any] = {}
    for versioning in ("overwrite", "multiversion"):
        for eps in (0, 2, UNLIMITED):
            config = SystemConfig(
                n_sites=4,
                seed=51,
                latency=ConstantLatency(2.0),
                initial=tuple(("x%d" % i, 0) for i in range(6)),
            )
            spec = WorkloadSpec(
                n_keys=6,
                count=count,
                query_fraction=0.5,
                style="blind",
                epsilon=eps,
                mean_interarrival=0.6,
            )
            result = run_experiment(
                lambda v=versioning: ReadIndependentUpdates(versioning=v),
                config,
                spec,
                workload_seed=23,
            )
            label = "%s eps=%s" % (
                versioning,
                "inf" if eps == UNLIMITED else int(eps),
            )
            data[label] = {
                "query_latency": result.metrics.query_latency_mean,
                "max_inconsistency": result.metrics.inconsistency_max,
                "waits": result.metrics.waits,
                "converged": result.converged,
                "one_copy_sr": result.one_copy_serializable,
            }
    rows = [
        [
            label,
            round(d["query_latency"], 2),
            d["max_inconsistency"],
            d["waits"],
            d["converged"],
        ]
        for label, d in data.items()
    ]
    text = render_table(
        "E7: RITU variants under blind-write workload",
        ["variant", "qry_lat", "max_err", "waits", "converged"],
        rows,
    )
    return text, data


# ----------------------------------------------------------------------
# E8 — COMPE compensation costs
# ----------------------------------------------------------------------


def experiment_e8_compe(
    count: int = 80,
) -> Tuple[str, Dict[str, Any]]:
    """Compensation strategy costs: commutative vs mixed logs."""
    data: Dict[str, Any] = {}
    for style in ("commutative", "mixed"):
        config = SystemConfig(
            n_sites=3,
            seed=61,
            latency=ConstantLatency(1.5),
            initial=tuple(("x%d" % i, 1) for i in range(5)),
        )
        spec = WorkloadSpec(
            n_keys=5,
            count=count,
            query_fraction=0.3,
            style=style,
            epsilon=UNLIMITED,
            mean_interarrival=1.0,
            abort_rate=0.25,
        )
        result = run_experiment(
            # Mixed (non-commutative) logs need ordered processing
            # underneath (COMPE over ORDUP, paper section 4.2).
            lambda s=style: CompensationBased(
                decision_delay=6.0, ordered=(s == "mixed")
            ),
            config,
            spec,
            workload_seed=29,
            keep_system=True,
        )
        assert result.system is not None
        stats = result.system.method.stats
        data[style] = {
            "aborts": stats.aborts,
            "direct": stats.direct_compensations,
            "rollback_replay": stats.rollback_replays,
            "undone": stats.operations_undone,
            "replayed": stats.operations_replayed,
            "post_hoc_queries": stats.post_hoc_inconsistent_queries,
            "converged": result.converged,
        }
        result.system = None
    rows = [
        [
            style,
            d["aborts"],
            d["direct"],
            d["rollback_replay"],
            d["undone"],
            d["replayed"],
            d["converged"],
        ]
        for style, d in data.items()
    ]
    text = render_table(
        "E8: COMPE compensation strategy costs (abort rate 25%)",
        ["log style", "aborts", "direct", "rb+replay", "undone",
         "replayed", "converged"],
        rows,
    )
    return text, data


# ----------------------------------------------------------------------
# E9 — availability under partition
# ----------------------------------------------------------------------


def experiment_e9_availability(
    count: int = 60,
) -> Tuple[str, Dict[str, Dict[str, float]]]:
    """Update progress during a partition: async vs sync methods."""

    partition_start, partition_end = 5.0, 65.0

    def failures(system) -> None:
        injector = FailureInjector(
            system.sim, system.network, system.sites,
            on_heal=system.kick_queues,
        )
        injector.schedule_partition(
            PartitionEvent(
                (("site0", "site1"), ("site2", "site3")),
                at=partition_start,
                duration=partition_end - partition_start,
            )
        )

    data: Dict[str, Dict[str, float]] = {}
    for name, (factory, style) in _method_factories().items():
        config = SystemConfig(
            n_sites=4,
            seed=71,
            latency=ConstantLatency(1.0),
            retry_interval=4.0,
            initial=tuple(("x%d" % i, 0) for i in range(6)),
        )
        spec = WorkloadSpec(
            n_keys=6,
            count=count,
            query_fraction=0.0,
            style=style,
            mean_interarrival=1.0,
        )
        result = run_experiment(
            factory, config, spec, workload_seed=31, failures=failures,
            keep_system=True,
        )
        assert result.system is not None
        in_partition = [
            r
            for r in result.system.results
            if partition_start <= r.start_time < partition_end
            and r.et.is_update
        ]
        committed_fast = sum(
            1
            for r in in_partition
            if r.finish_time <= partition_end and r.latency < 10.0
        )
        data[name] = {
            "updates_during_partition": float(len(in_partition)),
            "committed_before_heal": float(committed_fast),
            "availability": (
                committed_fast / len(in_partition) if in_partition else 1.0
            ),
            "converged": float(result.converged),
        }
        result.system = None
    rows = [
        [
            name,
            int(d["updates_during_partition"]),
            int(d["committed_before_heal"]),
            round(d["availability"], 2),
            bool(d["converged"]),
        ]
        for name, d in data.items()
    ]
    text = render_table(
        "E9: update availability during a 60s partition",
        ["method", "submitted", "fast-committed", "availability",
         "converged"],
        rows,
    )
    return text, data


# ----------------------------------------------------------------------
# E10 — link latency sweep
# ----------------------------------------------------------------------


def experiment_e10_latency(
    latencies: Tuple[float, ...] = (0.5, 2.0, 8.0, 32.0),
    count: int = 50,
) -> Tuple[str, Dict[str, Dict[float, float]]]:
    """Update commit latency as link latency grows: sync degrades."""
    data: Dict[str, Dict[float, float]] = {}
    for latency in latencies:
        for name, (factory, style) in _method_factories(latency).items():
            config = SystemConfig(
                n_sites=4,
                seed=81,
                latency=ConstantLatency(latency),
                initial=tuple(("x%d" % i, 0) for i in range(8)),
            )
            spec = WorkloadSpec(
                n_keys=8,
                count=count,
                query_fraction=0.0,
                style=style,
                # Measure per-update latency below saturation: offered
                # load scales down as links slow, like the paper's
                # "moderately high latency" federated setting.
                mean_interarrival=max(3.0, 2.0 * latency),
            )
            result = run_experiment(factory, config, spec, workload_seed=37)
            data.setdefault(name, {})[latency] = (
                result.metrics.update_latency_mean
            )
    series = {
        name: [round(data[name][l], 2) for l in latencies] for name in data
    }
    text = render_series(
        "E10: mean update commit latency vs link latency",
        "link_lat",
        list(latencies),
        series,
    )
    return text, data


# ----------------------------------------------------------------------
# A1/A4 — one site's scheduler under a contended workload
# ----------------------------------------------------------------------


def _scheduler_run(
    seed: int,
    dc: DivergenceControl,
    initial: Dict[str, Any],
    arrivals: Sequence[Tuple[float, Callable[[], EpsilonTransaction]]],
) -> LocalScheduler:
    """Run ``arrivals`` (time, ET factory) through one local scheduler.

    Each ET is built when it arrives, so tids follow arrival order.
    """
    reset_tid_counter()
    sim = Simulator(seed=seed)
    sched = LocalScheduler(sim, dc, KeyValueStore(initial))
    for at, make in arrivals:
        sim.schedule_at(at, lambda make=make: sched.submit(make()))
    sim.run()
    return sched


def experiment_a1_lock_tables() -> Tuple[str, Dict[str, Dict[str, float]]]:
    """Same mixed ET workload under classic 2PL, Table 2 and Table 3.

    Arrivals outpace the 0.5-unit op time, so same-key update ETs
    overlap: W_U/W_U contention separates Table 3 ("Comm") from
    Table 2, and R_Q admission separates Table 2 from classic 2PL.
    """
    keys = ("a", "b", "c")
    arrivals: List[Tuple[float, Callable[[], EpsilonTransaction]]] = []
    for i in range(12):
        key = keys[i % 3]
        arrivals.append(
            (i * 0.1, lambda k=key: UpdateET([IncrementOp(k, 1)]))
        )
        if i % 2 == 0:
            arrivals.append((
                i * 0.1 + 0.05,
                lambda k=key: QueryET(
                    [ReadOp(k)], EpsilonSpec(import_limit=5)
                ),
            ))
    data: Dict[str, Dict[str, float]] = {}
    for name, table in (
        ("classic", CLASSIC_2PL),
        ("ordup", ORDUP_TABLE),
        ("commu", COMMU_TABLE),
    ):
        sched = _scheduler_run(
            5, TwoPhaseLockingDC(table), {k: 0 for k in keys}, arrivals
        )
        data[name] = {
            "completed": len(sched.completed),
            "waits": sched.wait_count,
            "makespan": max(r.finish_time for r in sched.completed),
        }
    rows = [
        [name, d["completed"], d["waits"], round(d["makespan"], 2)]
        for name, d in data.items()
    ]
    text = render_table(
        "A1: lock table vs blocking (same mixed workload)",
        ["table", "ETs", "waits", "makespan"],
        rows,
    )
    return text, data


def experiment_a4_dc_engines() -> Tuple[str, Dict[str, Dict[str, float]]]:
    """2PL vs basic timestamps vs OCC on read-modify-write ETs.

    2PL blocks, and two read-lock holders that both need the write
    lock deadlock; the scheduler's wait timeout resolves that.  The
    timestamp and optimistic engines never block: they restart.
    """
    keys = ("a", "b")
    arrivals: List[Tuple[float, Callable[[], EpsilonTransaction]]] = []
    for i in range(10):
        key = keys[i % 2]
        arrivals.append((
            i * 0.15,
            lambda k=key: UpdateET([ReadOp(k), IncrementOp(k, 1)]),
        ))
        if i % 2 == 0:
            arrivals.append((
                i * 0.15 + 0.05,
                lambda k=key: QueryET(
                    [ReadOp(k)], EpsilonSpec(import_limit=3)
                ),
            ))
    data: Dict[str, Dict[str, float]] = {}
    for name, make_dc in (
        ("2PL", lambda: TwoPhaseLockingDC(ORDUP_TABLE)),
        ("timestamp", BasicTimestampDC),
        ("optimistic", OptimisticDC),
    ):
        sched = _scheduler_run(9, make_dc(), {k: 0 for k in keys}, arrivals)
        data[name] = {
            "committed": sum(
                1 for r in sched.completed
                if r.status == ETStatus.COMMITTED
            ),
            "waits": sched.wait_count,
            "aborts": sched.abort_count,
            "final_a": sched.store.get("a"),
            "final_b": sched.store.get("b"),
            "makespan": max(r.finish_time for r in sched.completed),
        }
    rows = [
        [
            name,
            d["committed"],
            d["waits"],
            d["aborts"],
            round(d["makespan"], 2),
        ]
        for name, d in data.items()
    ]
    text = render_table(
        "A4: divergence engine on contended RMW workload",
        ["engine", "committed", "waits", "aborts", "makespan"],
        rows,
    )
    return text, data


# ----------------------------------------------------------------------
# A2 — ORDUP ordering service: central server vs Lamport clocks
# ----------------------------------------------------------------------


def experiment_a2_ordering() -> Tuple[str, Dict[str, Dict[str, Any]]]:
    """Commit latency, messages and stabilization of both orderings."""
    data: Dict[str, Dict[str, Any]] = {}
    for ordering in ("central", "lamport"):
        config = SystemConfig(
            n_sites=4,
            seed=17,
            latency=UniformLatency(0.5, 2.0),
            initial=tuple(("x%d" % i, 0) for i in range(6)),
        )
        spec = WorkloadSpec(
            n_keys=6, count=60, query_fraction=0.0, style="mixed",
            mean_interarrival=1.0,
        )
        result = run_experiment(
            lambda o=ordering: OrderedUpdates(ordering=o),
            config, spec, workload_seed=3, keep_system=True,
        )
        assert result.system is not None
        data[ordering] = {
            "commit_latency": result.metrics.update_latency_mean,
            "quiescence": result.quiescence_time,
            "messages": result.system.network.stats.sent,
            "converged": result.converged,
            "one_copy_sr": result.one_copy_serializable,
        }
        result.system = None
    rows = [
        [
            name,
            round(d["commit_latency"], 2),
            round(d["quiescence"], 1),
            d["messages"],
            d["converged"],
        ]
        for name, d in data.items()
    ]
    text = render_table(
        "A2: ORDUP ordering service (60 non-commutative updates)",
        ["ordering", "commit_lat", "quiescence", "messages", "converged"],
        rows,
    )
    return text, data


# ----------------------------------------------------------------------
# A3 — COMPE decision delay: optimism window vs query exposure
# ----------------------------------------------------------------------


def experiment_a3_compe_delay(
    delays: Tuple[float, ...] = (2.0, 8.0, 24.0),
) -> Tuple[str, Dict[float, Dict[str, Any]]]:
    """Longer undecided windows: more stalls and post-hoc errors."""
    data: Dict[float, Dict[str, Any]] = {}
    for delay in delays:
        config = SystemConfig(
            n_sites=3,
            seed=23,
            latency=UniformLatency(0.5, 1.5),
            initial=tuple(("x%d" % i, 1) for i in range(5)),
        )
        spec = WorkloadSpec(
            n_keys=5,
            count=80,
            query_fraction=0.5,
            style="commutative",
            epsilon=2,
            mean_interarrival=0.8,
            abort_rate=0.2,
        )
        result = run_experiment(
            lambda d=delay: CompensationBased(decision_delay=d),
            config, spec, workload_seed=7, keep_system=True,
        )
        assert result.system is not None
        data[delay] = {
            "query_waits": result.metrics.waits,
            "mean_error": result.metrics.inconsistency_mean,
            "post_hoc": (
                result.system.method.stats.post_hoc_inconsistent_queries
            ),
            "converged": result.converged,
        }
        result.system = None
    text = render_series(
        "A3: COMPE decision delay (20% aborts, query eps=2)",
        "delay",
        list(delays),
        {
            "waits": [data[d]["query_waits"] for d in delays],
            "mean_err": [round(data[d]["mean_error"], 2) for d in delays],
            "post_hoc": [data[d]["post_hoc"] for d in delays],
        },
    )
    return text, data


# ----------------------------------------------------------------------
# X1 — value-based epsilon (section 5.1)
# ----------------------------------------------------------------------


def experiment_x1_value_epsilon(
    budgets: Tuple[float, ...] = (0, 150, 250, UNLIMITED),
) -> Tuple[str, Dict[float, Dict[str, Any]]]:
    """Four concurrent 100-unit deposits; one query bounds its drift."""
    data: Dict[float, Dict[str, Any]] = {}
    for budget in budgets:
        reset_tid_counter()
        system = ReplicatedSystem(
            CommutativeOperations(),
            SystemConfig(
                n_sites=4,
                seed=13,
                latency=UniformLatency(3.0, 6.0),
                initial=(("balance", 0),),
            ),
        )
        for i in range(4):
            system.submit_at(
                0.1 * i, UpdateET([IncrementOp("balance", 100)]),
                "site%d" % i,
            )
        system.submit_at(
            0.5,
            QueryET([ReadOp("balance")], EpsilonSpec(value_limit=budget)),
            "site0",
        )
        system.run_to_quiescence()
        report = audited(system)
        query = [r for r in system.results if r.et.is_query][0]
        data[budget] = {
            "imported_updates": query.inconsistency,
            "waits": query.waits,
            "converged": report.converged,
        }
    text = render_series(
        "X1: value-bounded queries (4 concurrent 100-unit deposits)",
        "value_budget",
        ["inf" if b == UNLIMITED else int(b) for b in budgets],
        {
            "imported": [data[b]["imported_updates"] for b in budgets],
            "waits": [data[b]["waits"] for b in budgets],
        },
    )
    return text, data


# ----------------------------------------------------------------------
# X2 — quasi-copies vs ESR bounded queries (section 5.2)
# ----------------------------------------------------------------------


def _audit_cell(report: AuditReport) -> str:
    """``ok``, or the guarantees a run broke, in one table cell."""
    broken = [
        name
        for name, failed in (
            ("converge", not report.converged),
            ("1SR", not report.one_copy_serializable),
            ("epsilon", bool(report.epsilon_violations)),
            ("overlap", bool(report.overlap_violations)),
        )
        if failed
    ]
    return "+".join(broken) or "ok"


def experiment_x2_quasicopies() -> Tuple[str, Dict[str, Dict[str, Any]]]:
    """One update/query load under quasi-copies and under COMMU.

    Quasi-copies keep updates 1SR at a primary and let cached copies
    lag, so they are meant to break ESR: their runs' audit outcome is
    a table column, not an audit failure.  The COMMU run is audited
    like every other run.
    """
    designs: Tuple[Tuple[str, Callable[[], Any]], ...] = (
        ("QUASI lag=2",
         lambda: QuasiCopies(ClosenessSpec(version_lag=2))),
        ("QUASI lag=8",
         lambda: QuasiCopies(ClosenessSpec(version_lag=8))),
        ("COMMU eps=3", CommutativeOperations),
    )
    data: Dict[str, Dict[str, Any]] = {}
    for name, factory in designs:
        reset_tid_counter()
        method = factory()
        system = ReplicatedSystem(
            method,
            SystemConfig(
                n_sites=4,
                seed=19,
                latency=ConstantLatency(2.0),
                initial=(("stock", 0),),
            ),
        )
        for i in range(20):
            system.submit_at(
                i * 1.0, UpdateET([IncrementOp("stock", 1)]),
                "site%d" % (i % 4),
            )
            system.submit_at(
                i * 1.0 + 0.5,
                QueryET([ReadOp("stock")], EpsilonSpec(import_limit=3)),
                "site%d" % ((i + 1) % 4),
            )
        system.run_to_quiescence()
        report = (
            audit(system) if isinstance(method, QuasiCopies)
            else audited(system)
        )
        updates = [r for r in system.results if r.et.is_update]
        queries = [r for r in system.results if r.et.is_query]
        data[name] = {
            "update_latency": sum(r.latency for r in updates) / len(updates),
            "mean_query_error": (
                sum(r.inconsistency for r in queries) / len(queries)
            ),
            "max_query_error": max(r.inconsistency for r in queries),
            "converged": report.converged,
            "audit": _audit_cell(report),
        }
    rows = [
        [
            name,
            round(d["update_latency"], 2),
            round(d["mean_query_error"], 2),
            d["max_query_error"],
            d["converged"],
            d["audit"],
        ]
        for name, d in data.items()
    ]
    text = render_table(
        "X2: quasi-copies vs ESR (20 updates, 20 queries)",
        ["design", "upd_lat", "qry_err_mean", "qry_err_max", "converged",
         "audit"],
        rows,
    )
    return text, data


# ----------------------------------------------------------------------
# X3 — offline partition merge vs online ESR (section 5.3)
# ----------------------------------------------------------------------


def _partition_logs(
    duration: int, seed: int
) -> Tuple[List[LoggedOp], List[LoggedOp]]:
    """Both sides' logs for a partition of ``duration``: one update
    per time unit per side, a tenth of them multiplications."""
    rng = random.Random(seed)
    keys = ["k%d" % i for i in range(5)]

    def side(base_tid: int) -> List[LoggedOp]:
        log = []
        for i in range(duration):
            key = rng.choice(keys)
            if rng.random() < 0.1:
                op: Any = MultiplyOp(key, 2)
            else:
                op = IncrementOp(key, rng.randint(1, 5))
            log.append(LoggedOp(base_tid + i, op))
        return log

    return side(1_000), side(2_000)


def _esr_catchup_messages(duration: int) -> Tuple[int, bool]:
    """The same offered load under COMMU through a real partition:
    messages sent after healing, and whether the replicas converged."""
    reset_tid_counter()
    system = ReplicatedSystem(
        CommutativeOperations(),
        SystemConfig(
            n_sites=2,
            seed=duration,
            latency=ConstantLatency(1.0),
            retry_interval=3.0,
            initial=tuple(("k%d" % i, 0) for i in range(5)),
        ),
    )
    injector = FailureInjector(
        system.sim, system.network, system.sites,
        on_heal=system.kick_queues,
    )
    injector.schedule_partition(
        PartitionEvent((("site0",), ("site1",)), at=0.0, duration=duration)
    )
    for i in range(duration * 2):
        system.submit_at(
            i * 0.5,
            UpdateET([IncrementOp("k%d" % (i % 5), 1)]),
            "site%d" % (i % 2),
        )
    system.run(until=duration)
    sent_before_heal = system.network.stats.sent
    system.run_to_quiescence()
    report = audited(system)
    return system.network.stats.sent - sent_before_heal, report.converged


def experiment_x3_partition_merge(
    durations: Tuple[int, ...] = (10, 30, 90),
) -> Tuple[str, Dict[int, Dict[str, Any]]]:
    """Reconnection work by partition length: merge vs ESR.

    ESR never backs out a committed update, so its backouts are 0 by
    construction; its converged flag is audited.
    """
    data: Dict[int, Dict[str, Any]] = {}
    for duration in durations:
        merged = merge_partition_logs(
            *_partition_logs(duration, seed=duration)
        )
        messages, converged = _esr_catchup_messages(duration)
        data[duration] = {
            "merge_pairs": merged.ops_examined,
            "merge_backouts": len(merged.backed_out),
            "esr_catchup_msgs": messages,
            "esr_converged": converged,
        }
    text = render_series(
        "X3: offline merge vs ESR reconnect, by partition length",
        "duration",
        list(durations),
        {
            "pairs": [data[d]["merge_pairs"] for d in durations],
            "backouts": [data[d]["merge_backouts"] for d in durations],
            "esr_msgs": [data[d]["esr_catchup_msgs"] for d in durations],
        },
    )
    return text, data


# ----------------------------------------------------------------------
# X4 — deferred updates: ETs with deadlines (section 5.1)
# ----------------------------------------------------------------------


def experiment_x4_deadlines(
    deadlines: Tuple[float, ...] = (2.0, 6.0, 20.0),
) -> Tuple[str, Dict[float, Dict[str, Dict[str, Any]]]]:
    """Propagation-deadline hit-rate on lossy links, with and without
    escalation (kicking the stable queues at the deadline)."""
    data: Dict[float, Dict[str, Dict[str, Any]]] = {}
    for deadline in deadlines:
        data[deadline] = {}
        for label, escalate in (("escalated", True), ("plain", False)):
            reset_tid_counter()
            system = ReplicatedSystem(
                CommutativeOperations(),
                SystemConfig(
                    n_sites=4,
                    seed=29,
                    latency=UniformLatency(1.0, 4.0),
                    loss_rate=0.2,
                    retry_interval=10.0,
                    initial=(("x", 0),),
                ),
            )
            tracker = DeadlineTracker(system, escalate=escalate)
            for i in range(30):
                system.sim.schedule_at(
                    i * 1.5,
                    lambda i=i: tracker.submit(
                        UpdateET([IncrementOp("x", 1)]),
                        "site%d" % (i % 4),
                        relative_deadline=deadline,
                    ),
                )
            system.run_to_quiescence()
            data[deadline][label] = {
                "met": tracker.met_fraction(),
                "converged": audited(system).converged,
            }
    text = render_series(
        "X4: deadline hit-rate (lossy links, 10-unit retry timer)",
        "deadline",
        list(deadlines),
        {
            label: [round(data[d][label]["met"], 2) for d in deadlines]
            for label in ("plain", "escalated")
        },
    )
    return text, data


# ----------------------------------------------------------------------
# X5 — low-bandwidth links (section 2.4)
# ----------------------------------------------------------------------


def experiment_x5_bandwidth(
    bandwidths: Tuple[float, ...] = (8.0, 2.0, 0.5),
) -> Tuple[str, Dict[float, Dict[str, Dict[str, Any]]]]:
    """Commit latency and convergence time as the link narrows."""
    data: Dict[float, Dict[str, Dict[str, Any]]] = {}
    for bandwidth in bandwidths:
        data[bandwidth] = {}
        for name, factory in (
            ("COMMU", CommutativeOperations),
            ("PRIMARY", PrimaryCopy),
        ):
            config = SystemConfig(
                n_sites=4,
                seed=31,
                latency=ConstantLatency(1.0),
                bandwidth=bandwidth,
                initial=tuple(("x%d" % i, 0) for i in range(6)),
            )
            spec = WorkloadSpec(
                n_keys=6,
                count=40,
                query_fraction=0.0,
                style="commutative",
                mean_interarrival=2.0,
            )
            result = run_experiment(factory, config, spec, workload_seed=5)
            data[bandwidth][name] = {
                "commit_latency": result.metrics.update_latency_mean,
                "quiescence": result.quiescence_time,
                "converged": result.converged,
            }
    text = render_series(
        "X5: commit latency vs link bandwidth (latency fixed at 1)",
        "bandwidth",
        list(bandwidths),
        {
            "COMMU_commit": [
                round(data[b]["COMMU"]["commit_latency"], 2)
                for b in bandwidths
            ],
            "PRIMARY_commit": [
                round(data[b]["PRIMARY"]["commit_latency"], 2)
                for b in bandwidths
            ],
            "COMMU_quiesce": [
                round(data[b]["COMMU"]["quiescence"], 1) for b in bandwidths
            ],
        },
    )
    return text, data


#: Registry used by the CLI and by EXPERIMENTS.md regeneration.
EXPERIMENTS: Dict[str, Callable[[], Tuple[str, Any]]] = {
    "T1": experiment_table1,
    "T2": experiment_table2,
    "T3": experiment_table3,
    "E1": experiment_e1_example_log,
    "E2": experiment_e2_scaleup,
    "E3": experiment_e3_epsilon_sweep,
    "E4": experiment_e4_convergence,
    "E5": experiment_e5_ordup,
    "E6": experiment_e6_commu,
    "E7": experiment_e7_ritu,
    "E8": experiment_e8_compe,
    "E9": experiment_e9_availability,
    "E10": experiment_e10_latency,
    "A1": experiment_a1_lock_tables,
    "A2": experiment_a2_ordering,
    "A3": experiment_a3_compe_delay,
    "A4": experiment_a4_dc_engines,
    "X1": experiment_x1_value_epsilon,
    "X2": experiment_x2_quasicopies,
    "X3": experiment_x3_partition_merge,
    "X4": experiment_x4_deadlines,
    "X5": experiment_x5_bandwidth,
}
