"""Extension — low-bandwidth links (paper section 2.4).

"This is a big handicap when network links have very low bandwidth or
moderately high latency."  The latency half is benchmark E10; this
covers the bandwidth half: per-link capacity limits serialize traffic,
so every message queues behind earlier ones.

Expected shape: synchronous update latency *blows up* as bandwidth
shrinks (each commit needs multiple protocol messages through the
bottleneck, and they contend); asynchronous commit latency stays flat
(commits are local) while only the background convergence time
stretches.
"""

import pytest

from conftest import run_once

from repro.core.transactions import reset_tid_counter
from repro.harness.report import render_series
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.replica.coherency import PrimaryCopy
from repro.sim.network import ConstantLatency
from repro.workload.generator import WorkloadGenerator, WorkloadSpec, drive

BANDWIDTHS = (8.0, 2.0, 0.5)


def _run(method_factory, bandwidth):
    reset_tid_counter()
    config = SystemConfig(
        n_sites=4,
        seed=31,
        latency=ConstantLatency(1.0),
        bandwidth=bandwidth,
        initial=tuple(("x%d" % i, 0) for i in range(6)),
    )
    system = ReplicatedSystem(method_factory(), config)
    spec = WorkloadSpec(
        n_keys=6,
        count=40,
        query_fraction=0.0,
        style="commutative",
        mean_interarrival=2.0,
    )
    drive(system, WorkloadGenerator(spec, sorted(system.sites), 5).generate())
    quiescence = system.run_to_quiescence()
    updates = [r for r in system.results if r.et.is_update]
    return {
        "commit_latency": sum(r.latency for r in updates) / len(updates),
        "quiescence": quiescence,
        "converged": system.converged(),
    }


def test_ext_bandwidth(benchmark, show):
    def sweep():
        data = {}
        for bw in BANDWIDTHS:
            data[bw] = {
                "COMMU": _run(CommutativeOperations, bw),
                "PRIMARY": _run(PrimaryCopy, bw),
            }
        return data

    data = run_once(benchmark, sweep)
    show(render_series(
        "Extension: commit latency vs link bandwidth (latency fixed at 1)",
        "bandwidth",
        list(BANDWIDTHS),
        {
            "COMMU_commit": [
                round(data[b]["COMMU"]["commit_latency"], 2)
                for b in BANDWIDTHS
            ],
            "PRIMARY_commit": [
                round(data[b]["PRIMARY"]["commit_latency"], 2)
                for b in BANDWIDTHS
            ],
            "COMMU_quiesce": [
                round(data[b]["COMMU"]["quiescence"], 1) for b in BANDWIDTHS
            ],
        },
    ))

    # Synchronous commit latency degrades as the pipe narrows...
    assert (
        data[0.5]["PRIMARY"]["commit_latency"]
        > data[8.0]["PRIMARY"]["commit_latency"]
    )
    # ...while asynchronous commits stay local-speed at every width.
    for bw in BANDWIDTHS:
        assert data[bw]["COMMU"]["commit_latency"] == 0.0
        assert data[bw]["COMMU"]["converged"]
        assert data[bw]["PRIMARY"]["converged"]
    # The async system pays with slower background convergence instead.
    assert (
        data[0.5]["COMMU"]["quiescence"] > data[8.0]["COMMU"]["quiescence"]
    )
