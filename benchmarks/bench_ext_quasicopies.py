"""Extension — quasi-copies vs ESR bounded queries (paper section 5.2).

The paper: "Quasi-copies ... require that all updates be 1SR. ...
Inconsistency is only introduced because quasi-copies may lag the
primary copy.  Replica control methods, in contrast, constrain the
degree of inconsistency of ETs directly."

This benchmark runs the same update/query workload under both designs
and measures what each buys:

* QUASI: updates pay the primary round trip; queries are local and may
  be stale within the closeness bound; replicas do *not* converge at
  quiescence (staleness persists by design).
* COMMU (ESR): updates commit locally; queries meter their own error
  against an epsilon budget; replicas converge exactly.
"""

import pytest

from conftest import run_once

from repro.core.operations import IncrementOp, ReadOp
from repro.core.transactions import (
    EpsilonSpec,
    QueryET,
    UpdateET,
    reset_tid_counter,
)
from repro.harness.report import render_table
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.replica.quasicopy import ClosenessSpec, QuasiCopies
from repro.sim.network import ConstantLatency


def _run(method):
    reset_tid_counter()
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
            i * 1.0,
            UpdateET([IncrementOp("stock", 1)]),
            "site%d" % (i % 4),
        )
        system.submit_at(
            i * 1.0 + 0.5,
            QueryET([ReadOp("stock")], EpsilonSpec(import_limit=3)),
            "site%d" % ((i + 1) % 4),
        )
    quiescence = system.run_to_quiescence()
    updates = [r for r in system.results if r.et.is_update]
    queries = [r for r in system.results if r.et.is_query]
    return {
        "update_latency": sum(r.latency for r in updates) / len(updates),
        "mean_query_error": sum(r.inconsistency for r in queries)
        / len(queries),
        "max_query_error": max(r.inconsistency for r in queries),
        "converged": system.converged(),
        "quiescence": quiescence,
    }


def test_ext_quasicopies_vs_esr(benchmark, show):
    def sweep():
        return {
            "QUASI lag=2": _run(QuasiCopies(ClosenessSpec(version_lag=2))),
            "QUASI lag=8": _run(QuasiCopies(ClosenessSpec(version_lag=8))),
            "COMMU eps=3": _run(CommutativeOperations()),
        }

    data = run_once(benchmark, sweep)
    rows = [
        [
            name,
            round(d["update_latency"], 2),
            round(d["mean_query_error"], 2),
            d["max_query_error"],
            d["converged"],
        ]
        for name, d in data.items()
    ]
    show(render_table(
        "Extension: quasi-copies vs ESR (20 updates, 20 queries)",
        ["design", "upd_lat", "qry_err_mean", "qry_err_max", "converged"],
        rows,
    ))

    # Updates: ESR commits locally; quasi-copies pay the primary trip.
    assert (
        data["COMMU eps=3"]["update_latency"]
        < data["QUASI lag=2"]["update_latency"]
    )

    # Queries: a looser closeness bound means more staleness.
    assert (
        data["QUASI lag=8"]["mean_query_error"]
        >= data["QUASI lag=2"]["mean_query_error"]
    )

    # The structural difference: ESR converges exactly at quiescence;
    # quasi-copies retain bounded staleness forever.
    assert data["COMMU eps=3"]["converged"]
    assert not data["QUASI lag=8"]["converged"]

    # ESR's error is bounded by epsilon everywhere.
    assert data["COMMU eps=3"]["max_query_error"] <= 3
