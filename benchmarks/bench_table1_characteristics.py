"""T1 — Reproduce Table 1: replica-control method characteristics.

The table is regenerated from the live trait declarations of the four
method classes; the benchmark also *probes* two of the claims
behaviorally — ORDUP's constrained update propagation (a held-back MSet
does not execute early) versus COMMU's fully asynchronous processing —
so the rendered table is backed by measured behavior, not prose.
"""

from conftest import run_once

from repro.core.operations import IncrementOp
from repro.core.transactions import UpdateET, reset_tid_counter
from repro.harness.experiments import experiment_table1
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.replica.host import OrderedUpdates
from repro.replica.mset import MSet, MSetKind


def test_table1_render(benchmark, show):
    text, data = run_once(benchmark, experiment_table1)
    show(text)
    assert data["ORDUP"]["Asynchronous Propagation"] == "Query only"
    assert data["COMMU"]["Asynchronous Propagation"] == "Query & Update"


def test_table1_probe_ordup_delivery_restriction(benchmark):
    """An out-of-order MSet must be held back by ORDUP sites."""

    def probe():
        reset_tid_counter()
        system = ReplicatedSystem(
            OrderedUpdates(), SystemConfig(n_sites=2, initial=(("x", 0),))
        )
        site = system.sites["site1"]
        # Deliver sequence number 2 before 1: must not execute.
        later = MSet(99, MSetKind.UPDATE, (IncrementOp("x", 5),),
                     "site0", (2, 0))
        system.method.runtime.update_submitted(
            UpdateET([IncrementOp("x", 5)])
        )
        system.method.handle_message(site, later)
        system.sim.run(until=10.0)
        return site.store.get("x")

    value = benchmark.pedantic(probe, rounds=1, iterations=1)
    assert value == 0  # held back: order 1 never arrived


def test_table1_probe_commu_processes_any_order(benchmark):
    """COMMU applies MSets in whatever order they arrive."""

    def probe():
        reset_tid_counter()
        system = ReplicatedSystem(
            CommutativeOperations(),
            SystemConfig(n_sites=2, initial=(("x", 0),)),
        )
        site = system.sites["site1"]
        for tid in (7, 5):  # arbitrary, out-of-submission order
            et = UpdateET([IncrementOp("x", 1)])
            system.method._ets[et.tid] = et
            system.method.runtime.update_submitted(et, copies=1)
            mset = MSet(et.tid, MSetKind.UPDATE,
                        (IncrementOp("x", 1),), "site0")
            system.method.handle_message(site, mset)
        system.sim.run(until=10.0)
        return site.store.get("x")

    value = benchmark.pedantic(probe, rounds=1, iterations=1)
    assert value == 2  # both applied despite no ordering information
