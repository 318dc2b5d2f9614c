"""Ablation — COMPE's decision delay: optimism window vs query exposure.

The longer a global update stays undecided, the longer queries carry
its potential-compensation charge (waits for strict queries, imported
error for relaxed ones) and the more finished queries turn out
post-hoc inconsistent when it aborts.  Sweeping the decision delay
quantifies the paper's warning that unbounded compensation exposure
breaks query error bounds (section 4.2).
"""

import pytest

from conftest import run_once

from repro.core.transactions import reset_tid_counter
from repro.harness.report import render_series
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CompensationBased
from repro.sim.network import UniformLatency
from repro.workload.generator import WorkloadGenerator, WorkloadSpec, drive

DELAYS = (2.0, 8.0, 24.0)


def _run(delay):
    reset_tid_counter()
    config = SystemConfig(
        n_sites=3,
        seed=23,
        latency=UniformLatency(0.5, 1.5),
        initial=tuple(("x%d" % i, 1) for i in range(5)),
    )
    system = ReplicatedSystem(
        CompensationBased(decision_delay=delay), config
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
    drive(
        system,
        WorkloadGenerator(spec, sorted(system.sites), 7).generate(),
        compe_aborts=True,
    )
    system.run_to_quiescence()
    queries = [r for r in system.results if r.et.is_query]
    return {
        "query_waits": sum(r.waits for r in queries),
        "mean_error": sum(r.inconsistency for r in queries) / len(queries),
        "post_hoc": system.method.stats.post_hoc_inconsistent_queries,
        "converged": system.converged(),
    }


def test_ablation_compe_decision_delay(benchmark, show):
    def sweep():
        return {delay: _run(delay) for delay in DELAYS}

    data = run_once(benchmark, sweep)
    show(render_series(
        "Ablation: COMPE decision delay (20% aborts, query eps=2)",
        "delay",
        list(DELAYS),
        {
            "waits": [data[d]["query_waits"] for d in DELAYS],
            "mean_err": [round(data[d]["mean_error"], 2) for d in DELAYS],
            "post_hoc": [data[d]["post_hoc"] for d in DELAYS],
        },
    ))

    # Convergence is delay-independent.
    assert all(d["converged"] for d in data.values())

    # A longer optimism window means more query stalling: undecided
    # updates hold their conservative charge longer.
    assert data[24.0]["query_waits"] > data[2.0]["query_waits"]
