#!/usr/bin/env python
"""Quickstart: a replicated counter under epsilon-serializability.

Three replica sites keep a counter.  Updates are commutative increments
propagated asynchronously (the COMMU method); queries read one replica
and declare how much inconsistency they tolerate.

The program talks to the system through the shared client verb surface
(``write`` / ``increment`` / ``read`` / ``query`` / ``settle`` ...),
which the live runtime's ``LiveClient`` mirrors verb-for-verb — the
same code ports to real sockets by swapping the constructor and adding
``await``.  Failures from either backend share one taxonomy:
``repro.ETError`` with a stable ``code``.

Run:  python examples/quickstart.py
"""

from repro import (
    Client,
    CommutativeOperations,
    Consistency,
    EpsilonSpec,
    ETError,
    IncrementOp,
    QueryET,
    ReadOp,
    ReplicatedSystem,
    SystemConfig,
    UniformLatency,
    UpdateET,
)


def main() -> None:
    # A 3-replica system with 1-4 time units of link latency.
    system = ReplicatedSystem(
        CommutativeOperations(),
        SystemConfig(
            n_sites=3,
            seed=7,
            latency=UniformLatency(1.0, 4.0),
            initial=(("counter", 0),),
        ),
    )

    # Ten deposits, submitted at different sites over time.  Each
    # commits locally, immediately — propagation happens in the
    # background through stable queues.
    for i in range(10):
        system.submit_at(
            float(i),
            UpdateET([IncrementOp("counter", 10)]),
            "site%d" % (i % 3),
        )

    # A bounded-inconsistency query: it may observe at most 2
    # concurrent updates' worth of error.
    system.submit_at(
        4.5,
        QueryET([ReadOp("counter")], EpsilonSpec(import_limit=2)),
        "site1",
    )

    # A strict (epsilon = 0) query: serializable, may have to wait.
    system.submit_at(
        4.5,
        QueryET([ReadOp("counter")], EpsilonSpec(import_limit=0)),
        "site2",
    )

    quiescence = system.run_to_quiescence()

    print("quiescence reached at t=%.2f" % quiescence)
    print("replicas converged:   %s" % system.converged())
    print("updates are 1SR:      %s" % system.is_one_copy_serializable())
    print()
    for result in system.results:
        if result.et.is_query:
            print(
                "query at %s: read counter=%s  inconsistency=%d "
                "(limit %s)  waited %d times"
                % (
                    result.site,
                    result.values.get("counter"),
                    result.inconsistency,
                    result.et.spec.import_limit,
                    result.waits,
                )
            )

    # The same system through the shared client verb surface.  The live
    # runtime's LiveClient exposes these exact verbs (``await``-ed), so
    # this block ports to real sockets unchanged in structure.
    alice = Client(system, "site0")
    bob = Client(system, "site2")
    alice.increment("counter", 25)  # local commit, async spread
    alice.decrement("counter", 25)
    bob.settle()  # drain propagation to quiescence

    # Both backends raise the shared ETError taxonomy: catch one type,
    # branch on the stable code (UNAVAILABLE / EPSILON_EXCEEDED /
    # ABORTED).  A live replica cut off from its peers would surface
    # here as code == "UNAVAILABLE" instead of a hang.
    try:
        final = bob.read("counter", Consistency.STRICT)  # serializable read
    except ETError as exc:
        print("strict read failed honestly: code=%s (%s)" % (exc.code, exc))
        final = bob.read("counter")  # fall back to an unbounded read
    print()
    print("final counter value at every replica: %s (expected 100)" % final)
    assert final == 100
    assert system.converged()


if __name__ == "__main__":
    main()
