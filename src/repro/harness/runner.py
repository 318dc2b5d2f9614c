"""Experiment runner: assemble a system, drive a workload, summarize.

One :func:`run_experiment` call is one cell of a parameter sweep; the
benchmarks compose sweeps out of these.  Everything is deterministic in
``(method, config, spec, seed)``.

A run is summarized from the list of
:class:`~repro.core.transactions.ETResult` the system accumulates
(throughput, latency percentiles, query inconsistency, waits) and
judged by one :func:`~repro.harness.audit.audit` call, so methods need
no metric hooks of their own.  Inside :func:`audit_failures` a failed
audit is also collected: ``python -m repro run`` wraps each experiment
in one.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.transactions import ETResult, ETStatus, reset_tid_counter
from ..replica.base import ReplicaControlMethod, ReplicatedSystem, SystemConfig
from ..replica.host import CompensationBased
from ..workload.generator import WorkloadGenerator, WorkloadSpec, drive
from .audit import AuditReport, audit

__all__ = [
    "ExperimentResult",
    "audited",
    "RunMetrics",
    "divergence_of",
    "divergence_trace",
    "percentile",
    "run_experiment",
    "summarize",
    "audit_failures",
]

#: the list the innermost :func:`audit_failures` block collects into.
_collector: ContextVar[Optional[List[str]]] = ContextVar(
    "audit_failures", default=None
)


@contextmanager
def audit_failures() -> Iterator[List[str]]:
    """Collect the failed guarantees of every run audited inside the
    block, one ``"<method>: <problems>"`` line per failed run."""
    failures: List[str] = []
    token = _collector.set(failures)
    try:
        yield failures
    finally:
        _collector.reset(token)


def audited(system: ReplicatedSystem) -> AuditReport:
    """Audit a quiescent system; inside :func:`audit_failures` a failed
    audit is also collected, named by the system's method."""
    report = audit(system)
    collected = _collector.get()
    if collected is not None and not report.ok:
        collected.append("%s: %s" % (
            system.method.traits.name, "; ".join(report.problems())
        ))
    return report


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile; 0 for empty input."""
    if not values:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(ordered[low])
    frac = rank - low
    return float(ordered[low] * (1 - frac) + ordered[high] * frac)


@dataclass
class RunMetrics:
    """Summary of one simulation run."""

    total_ets: int = 0
    committed: int = 0
    aborted: int = 0
    compensated: int = 0
    duration: float = 0.0
    throughput: float = 0.0
    #: update-only latency stats.
    update_latency_mean: float = 0.0
    update_latency_p95: float = 0.0
    #: query-only latency stats.
    query_latency_mean: float = 0.0
    query_latency_p95: float = 0.0
    #: query inconsistency counters.
    inconsistency_mean: float = 0.0
    inconsistency_max: int = 0
    #: fraction of queries whose counter respected their epsilon spec;
    #: ``None`` when the run served no queries — a run that answered
    #: nothing has no bound-compliance to report, and claiming a
    #: perfect 1.0 would hide broken (query-free) runs in a sweep.
    within_bound_fraction: Optional[float] = None
    #: total divergence-control stalls across queries.
    waits: int = 0


def summarize(results: Iterable[ETResult], duration: float) -> RunMetrics:
    """Aggregate a run's ET results into :class:`RunMetrics`."""
    metrics = RunMetrics(duration=duration)
    update_latencies: List[float] = []
    query_latencies: List[float] = []
    inconsistencies: List[int] = []
    bounded = 0
    queries = 0
    for result in results:
        metrics.total_ets += 1
        if result.status == ETStatus.COMMITTED:
            metrics.committed += 1
        elif result.status == ETStatus.ABORTED:
            metrics.aborted += 1
        elif result.status == ETStatus.COMPENSATED:
            metrics.compensated += 1
        metrics.waits += result.waits
        if result.et.is_update:
            update_latencies.append(result.latency)
        else:
            queries += 1
            query_latencies.append(result.latency)
            inconsistencies.append(result.inconsistency)
            if result.within_bound:
                bounded += 1
    if duration > 0:
        metrics.throughput = metrics.committed / duration
    if update_latencies:
        metrics.update_latency_mean = sum(update_latencies) / len(
            update_latencies
        )
        metrics.update_latency_p95 = percentile(update_latencies, 95)
    if query_latencies:
        metrics.query_latency_mean = sum(query_latencies) / len(
            query_latencies
        )
        metrics.query_latency_p95 = percentile(query_latencies, 95)
    if inconsistencies:
        metrics.inconsistency_mean = sum(inconsistencies) / len(
            inconsistencies
        )
        metrics.inconsistency_max = max(inconsistencies)
    if queries:
        metrics.within_bound_fraction = bounded / queries
    return metrics



def divergence_of(site_values: Mapping[str, Mapping[str, Any]]) -> float:
    """Total pairwise value divergence across replicas.

    For numeric values: sum over keys of (max - min) across sites; a
    direct measure of how far apart the replicas are at an instant.
    Non-numeric values contribute 1 per key on which any pair differs.
    """
    sites = sorted(site_values)
    if len(sites) < 2:
        return 0.0
    keys = set()
    for values in site_values.values():
        keys.update(values)
    total = 0.0
    for key in keys:
        observed = [site_values[s].get(key) for s in sites]
        numeric = [v for v in observed if isinstance(v, (int, float))]
        if len(numeric) == len(observed):
            total += max(numeric) - min(numeric)
        else:
            first = observed[0]
            if any(v != first for v in observed[1:]):
                total += 1.0
    return total


@dataclass
class ExperimentResult:
    """Everything a benchmark needs from one run."""

    metrics: RunMetrics
    quiescence_time: float
    converged: bool
    one_copy_serializable: bool
    #: the paper's bound: measured error <= overlap, for every query.
    error_within_overlap: bool
    #: query tid -> measured inconsistency counter.
    query_inconsistency: Dict[int, int] = field(default_factory=dict)
    #: query tid -> size of its overlap as tracked online over full ET
    #: lifetimes (the paper's bound).
    query_overlap_bound: Dict[int, int] = field(default_factory=dict)
    system: Optional[ReplicatedSystem] = None


def run_experiment(
    method_factory: Callable[[], ReplicaControlMethod],
    config: SystemConfig,
    spec: WorkloadSpec,
    workload_seed: int = 1,
    failures: Optional[Callable[[ReplicatedSystem], None]] = None,
    keep_system: bool = False,
) -> ExperimentResult:
    """Run one experiment cell to quiescence and summarize it.

    Args:
        method_factory: builds a fresh replica control method.
        config: system assembly parameters.
        spec: workload shape.
        workload_seed: RNG seed of the ET stream (distinct from the
            simulator seed in ``config``).
        failures: optional hook that schedules failure events against
            the freshly built system before the run starts.
        keep_system: retain the system object on the result (memory-
            heavy; used by tests that need post-run inspection).
    """
    system = _driven(method_factory, config, spec, workload_seed, failures)
    quiescence = system.run_to_quiescence()
    report = audited(system)
    return ExperimentResult(
        metrics=summarize(system.results, quiescence),
        quiescence_time=quiescence,
        converged=report.converged,
        one_copy_serializable=report.one_copy_serializable,
        error_within_overlap=not report.overlap_violations,
        query_inconsistency={
            r.et.tid: r.inconsistency
            for r in system.results
            if r.et.is_query
        },
        query_overlap_bound={
            r.et.tid: len(r.overlap)
            for r in system.results
            if r.et.is_query
        },
        system=system if keep_system else None,
    )


def _driven(
    method_factory: Callable[[], ReplicaControlMethod],
    config: SystemConfig,
    spec: WorkloadSpec,
    workload_seed: int,
    failures: Optional[Callable[[ReplicatedSystem], None]],
) -> ReplicatedSystem:
    """A fresh system with its failures and workload scheduled."""
    reset_tid_counter()
    method = method_factory()
    system = ReplicatedSystem(method, config)
    if failures is not None:
        failures(system)
    generator = WorkloadGenerator(spec, sorted(system.sites), workload_seed)
    drive(
        system,
        generator.generate(),
        compe_aborts=isinstance(method, CompensationBased),
    )
    return system


def divergence_trace(
    method_factory: Callable[[], ReplicaControlMethod],
    config: SystemConfig,
    spec: WorkloadSpec,
    sample_every: float = 5.0,
    workload_seed: int = 1,
    failures: Optional[Callable[[ReplicatedSystem], None]] = None,
) -> Tuple[List[float], List[float], float]:
    """Sample replica divergence over time (benchmark E4).

    Returns ``(times, divergences, quiescence_time)``; the final sample
    is taken at quiescence and must be zero for a converged system.
    """
    system = _driven(method_factory, config, spec, workload_seed, failures)
    times: List[float] = []
    values: List[float] = []

    horizon = spec.count * spec.mean_interarrival * 3
    t = 0.0
    while t < horizon:
        system.run(until=t)
        times.append(t)
        values.append(divergence_of(system.site_values()))
        t += sample_every
    quiescence = system.run_to_quiescence()
    times.append(quiescence)
    values.append(divergence_of(system.site_values()))
    return times, values, quiescence
