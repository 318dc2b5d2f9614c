"""Soak tests: larger-scale runs with the full ESR audit.

These runs are an order of magnitude bigger than the other integration
tests (6 sites, several hundred ETs, skewed keys, loss) — large enough
to surface bookkeeping leaks, quiescence-detection races, and counter
drift that small runs mask.
"""

import pytest

from repro.core.transactions import reset_tid_counter
from repro.harness.audit import audit
from repro.harness.runner import summarize
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.replica.compe import CompensationBased
from repro.replica.host import OrderedUpdates
from repro.replica.host import ReadIndependentUpdates
from repro.sim.network import UniformLatency
from repro.workload.generator import WorkloadGenerator, WorkloadSpec, drive


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


SOAK_CASES = [
    ("ordup", lambda: OrderedUpdates(), "mixed"),
    ("commu", lambda: CommutativeOperations(), "commutative"),
    ("ritu", lambda: ReadIndependentUpdates(), "blind"),
    ("compe", lambda: CompensationBased(decision_delay=3.0), "commutative"),
]


@pytest.mark.parametrize("name,factory,style", SOAK_CASES)
def test_soak_six_sites_six_hundred_ets(name, factory, style):
    config = SystemConfig(
        n_sites=6,
        seed=97,
        latency=UniformLatency(0.3, 2.5),
        loss_rate=0.03,
        retry_interval=3.0,
        initial=tuple(("k%d" % i, 10) for i in range(12)),
    )
    system = ReplicatedSystem(factory(), config)
    spec = WorkloadSpec(
        n_keys=12,
        count=600,
        query_fraction=0.4,
        style=style,
        epsilon=4,
        skew=0.8,
        mean_interarrival=0.4,
        abort_rate=0.1 if name == "compe" else 0.0,
    )
    drive(
        system,
        WorkloadGenerator(spec, sorted(system.sites), 41).generate(),
        compe_aborts=(name == "compe"),
    )
    quiescence = system.run_to_quiescence()
    report = audit(system)
    report.assert_ok()

    metrics = summarize(system.results, quiescence)
    assert metrics.total_ets == 600
    # Every query finished and respected its budget.
    assert report.queries_audited > 150
    assert metrics.within_bound_fraction == 1.0

    # Bookkeeping drains completely: no leaked in-flight state.
    runtime = system.method.runtime
    assert runtime.in_flight_updates() == 0
    assert runtime.tracker.active_update_count == 0
    assert runtime.tracker.active_query_count == 0


def test_soak_compe_log_gc_bounds_memory():
    """600 committed updates must not accumulate 600-record logs."""
    config = SystemConfig(
        n_sites=4,
        seed=53,
        latency=UniformLatency(0.3, 1.5),
        initial=tuple(("k%d" % i, 0) for i in range(6)),
    )
    system = ReplicatedSystem(CompensationBased(decision_delay=2.0), config)
    spec = WorkloadSpec(
        n_keys=6,
        count=600,
        query_fraction=0.0,
        style="commutative",
        mean_interarrival=0.5,
        abort_rate=0.05,
    )
    drive(
        system,
        WorkloadGenerator(spec, sorted(system.sites), 7).generate(),
        compe_aborts=True,
    )
    system.run_to_quiescence()
    assert system.converged()
    assert system.method.stats.log_records_reclaimed > 500
    for site in system.sites.values():
        # Only the undecided tail may remain; far below total history.
        assert len(site.oplog) < 60
