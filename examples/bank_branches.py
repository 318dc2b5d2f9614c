#!/usr/bin/env python
"""Federated bank branches: the paper's autonomy motivation (section 1).

Four branches each hold replicas of all account balances.  Branches are
autonomous — deposits and withdrawals commit locally and propagate
asynchronously (COMMU), so a slow inter-branch link never blocks a
teller.  Meanwhile:

* a *fast audit* runs with an inconsistency budget — it may be off by
  at most ``epsilon`` concurrent transactions, and the system tells it
  exactly how much error it imported;
* a *strict audit* (epsilon 0) is serializable: it observes a state
  equivalent to some serial execution, waiting if it must.

The example also contrasts ORDUP on the same workload: ordered updates
admit non-commutative operations (interest multiplication!) which
COMMU must reject.

Run:  python examples/bank_branches.py
"""

from repro import (
    CommutativeOperations,
    EpsilonSpec,
    IncrementOp,
    DecrementOp,
    MultiplyOp,
    OrderedUpdates,
    QueryET,
    ReadOp,
    ReplicatedSystem,
    SystemConfig,
    UniformLatency,
    UpdateET,
)
from repro.replica.host import NonCommutativeError

ACCOUNTS = ("alice", "bob", "carol")
BRANCHES = 4


def build(method):
    return ReplicatedSystem(
        method,
        SystemConfig(
            n_sites=BRANCHES,
            seed=11,
            latency=UniformLatency(2.0, 8.0),  # slow WAN between branches
            initial=tuple((acct, 1000) for acct in ACCOUNTS),
        ),
    )


def teller_traffic(system):
    """Deposits and withdrawals at every branch, over one 'day'."""
    rng_schedule = [
        (0.5, "site0", IncrementOp("alice", 200)),
        (1.0, "site1", DecrementOp("bob", 50)),
        (1.5, "site2", IncrementOp("carol", 75)),
        (2.0, "site3", DecrementOp("alice", 100)),
        (2.5, "site0", IncrementOp("bob", 300)),
        (3.0, "site1", DecrementOp("carol", 25)),
        (3.5, "site2", IncrementOp("alice", 40)),
        (4.0, "site3", IncrementOp("bob", 10)),
    ]
    for time, branch, op in rng_schedule:
        system.submit_at(time, UpdateET([op]), branch)


def main() -> None:
    print("== COMMU: autonomous branches, commutative money movement ==")
    system = build(CommutativeOperations())
    teller_traffic(system)

    # Fast audit mid-day with an error budget of 3 transactions.
    audit_ops = [ReadOp(acct) for acct in ACCOUNTS]
    system.submit_at(
        2.2, QueryET(audit_ops, EpsilonSpec(import_limit=3)), "site0"
    )
    # Strict end-of-day audit.
    system.submit_at(
        6.0, QueryET(audit_ops, EpsilonSpec(import_limit=0)), "site2"
    )

    quiescence = system.run_to_quiescence()
    for result in system.results:
        if not result.et.is_query:
            continue
        total = sum(result.values.values())
        kind = "strict" if result.et.spec.is_strict else "fast"
        print(
            "%s audit at %s: total=%d, imported error=%d, waited=%d"
            % (kind, result.site, total, result.inconsistency, result.waits)
        )
    expected = 3000 + 200 - 50 + 75 - 100 + 300 - 25 + 40 + 10
    balances = system.sites["site0"].values()
    print(
        "quiescence t=%.1f  converged=%s  total=%d (expected %d)"
        % (quiescence, system.converged(), sum(balances.values()), expected)
    )
    assert sum(balances.values()) == expected

    print()
    print("== COMMU rejects non-commutative interest posting ==")
    try:
        system.submit(UpdateET([MultiplyOp("alice", 2)]), "site0")
    except NonCommutativeError as exc:
        print("rejected as expected: %s" % exc)

    print()
    print("== ORDUP: same day plus 5% interest, ordered updates ==")
    system = build(OrderedUpdates())
    teller_traffic(system)
    # Interest posting multiplies balances — non-commutative, but ORDUP
    # executes every update in one global order at every branch.
    system.submit_at(
        5.0, UpdateET([MultiplyOp(acct, 1.05) for acct in ACCOUNTS]), "site0"
    )
    system.run_to_quiescence()
    print(
        "converged=%s  1SR=%s  alice=%.2f"
        % (
            system.converged(),
            system.is_one_copy_serializable(),
            system.sites["site3"].store.get("alice"),
        )
    )
    assert system.converged()
    assert system.is_one_copy_serializable()


if __name__ == "__main__":
    main()
