"""Ablation — ORDUP ordering service: central server vs Lamport clocks.

Section 3.1 offers both.  The central server gives gap-free sequence
numbers (cheap hold-back, but a round trip and a single point of
ordering); Lamport stamps are decentralized but need FIFO channels and
flush rounds to detect stability.  This ablation runs one workload
under both and reports ordering latency, message cost, and the
propagation lag each design pays.
"""

import pytest

from conftest import run_once

from repro.core.transactions import reset_tid_counter
from repro.harness.report import render_table
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import OrderedUpdates
from repro.sim.network import UniformLatency
from repro.workload.generator import WorkloadGenerator, WorkloadSpec, drive


def _run(ordering):
    reset_tid_counter()
    config = SystemConfig(
        n_sites=4,
        seed=17,
        latency=UniformLatency(0.5, 2.0),
        initial=tuple(("x%d" % i, 0) for i in range(6)),
    )
    system = ReplicatedSystem(OrderedUpdates(ordering=ordering), config)
    spec = WorkloadSpec(
        n_keys=6, count=60, query_fraction=0.0, style="mixed",
        mean_interarrival=1.0,
    )
    drive(system, WorkloadGenerator(spec, sorted(system.sites), 3).generate())
    quiescence = system.run_to_quiescence()
    commit_latency = sum(r.latency for r in system.results) / len(
        system.results
    )
    return {
        "commit_latency": commit_latency,
        "quiescence": quiescence,
        "messages": system.network.stats.sent,
        "converged": system.converged(),
        "one_copy_sr": system.is_one_copy_serializable(),
    }


def test_ablation_ordering_service(benchmark, show):
    def sweep():
        return {
            "central": _run("central"),
            "lamport": _run("lamport"),
        }

    data = run_once(benchmark, sweep)
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
    show(render_table(
        "Ablation: ORDUP ordering service (60 non-commutative updates)",
        ["ordering", "commit_lat", "quiescence", "messages", "converged"],
        rows,
    ))

    # Both orderings deliver the paper's guarantees.
    for d in data.values():
        assert d["converged"] and d["one_copy_sr"]

    # Lamport commits faster (no order-server round trip)...
    assert (
        data["lamport"]["commit_latency"]
        <= data["central"]["commit_latency"]
    )
    # ...but pays for decentralization in flush traffic and slower
    # stabilization (propagation completes later).
    assert data["lamport"]["messages"] > data["central"]["messages"]
    assert data["lamport"]["quiescence"] > data["central"]["quiescence"]
