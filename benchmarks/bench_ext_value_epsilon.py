"""Extension — value-based epsilon (paper section 5.1).

The paper relates ESR to 'interdependent data management' and
'controlled inconsistency', whose spatial criteria bound the *data
value* changed asynchronously rather than the number of operations.
The library implements that as ``EpsilonSpec(value_limit=...)``:
queries bound the worst-case numeric drift they import.

Expected shape: sweeping the value budget on a fixed-deposit workload
steps the number of admitted in-flight updates — budget // deposit —
and the measured drift never exceeds the budget.
"""

import pytest

from conftest import run_once

from repro.core.operations import IncrementOp, ReadOp
from repro.core.transactions import (
    EpsilonSpec,
    QueryET,
    UNLIMITED,
    UpdateET,
    reset_tid_counter,
)
from repro.harness.report import render_series
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations
from repro.sim.network import UniformLatency

DEPOSIT = 100
BUDGETS = (0, 150, 250, UNLIMITED)


def _run(budget):
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
    # Four concurrent deposits of 100, one per site.
    for i in range(4):
        system.submit_at(
            0.1 * i,
            UpdateET([IncrementOp("balance", DEPOSIT)]),
            "site%d" % i,
        )
    system.submit_at(
        0.5,
        QueryET([ReadOp("balance")], EpsilonSpec(value_limit=budget)),
        "site0",
    )
    system.run_to_quiescence()
    query = [r for r in system.results if r.et.is_query][0]
    return {
        "imported_updates": query.inconsistency,
        "waits": query.waits,
        "converged": system.converged(),
    }


def test_ext_value_epsilon(benchmark, show):
    def sweep():
        return {b: _run(b) for b in BUDGETS}

    data = run_once(benchmark, sweep)
    xs = ["inf" if b == UNLIMITED else int(b) for b in BUDGETS]
    show(render_series(
        "Extension: value-bounded queries (4 concurrent 100-unit deposits)",
        "value_budget",
        xs,
        {
            "imported": [data[b]["imported_updates"] for b in BUDGETS],
            "waits": [data[b]["waits"] for b in BUDGETS],
        },
    ))

    # Budget//deposit bounds the number of imported updates.
    assert data[0]["imported_updates"] == 0
    assert data[150]["imported_updates"] <= 1
    assert data[250]["imported_updates"] <= 2
    # Monotone in the budget.
    imports = [data[b]["imported_updates"] for b in BUDGETS]
    assert imports == sorted(imports)
    # Convergence unaffected.
    assert all(d["converged"] for d in data.values())
