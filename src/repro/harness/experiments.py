"""Registered experiments: one per paper table plus analytic claims.

Each experiment function returns ``(text, data)``: a rendered table in
the paper's layout and the structured values benchmarks assert on.
The experiment ids match DESIGN.md section 4 and EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..core.history import History
from ..core.locks import COMMU_TABLE, ORDUP_TABLE
from ..core.operations import ReadOp, WriteOp
from ..core.serializability import (
    is_epsilon_serial,
    is_serial,
    is_serializable,
)
from ..core.transactions import QueryET, UNLIMITED, UpdateET, reset_tid_counter
from ..replica.compe import CompensationBased
from ..replica.coherency import (
    PrimaryCopy,
    QuorumConsensus,
    ReadOneWriteAll2PC,
)
from ..replica.base import SystemConfig
from ..replica.host import (
    CommutativeOperations,
    OrderedUpdates,
    ReadIndependentUpdates,
)
from ..sim.network import ConstantLatency
from ..workload.generator import WorkloadSpec
from .report import render_series, render_table
from .runner import divergence_trace, run_experiment

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
    from ..sim.failures import FailureInjector, PartitionEvent

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
    from ..sim.failures import FailureInjector, PartitionEvent

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
}
