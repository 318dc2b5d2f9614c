#!/usr/bin/env python
"""Replicated directory service under RITU (paper sections 3.3, 5.4).

Grapevine and Clearinghouse — the paper's examples of asynchronous
directory propagation — map naturally onto RITU: a name binding is a
timestamped blind write ("rebind host -> address"), so replicas can
apply updates in any order and converge by the Thomas write rule, even
across a network partition.

The multiversion variant gives lookups a choice: read the newest
binding (paying inconsistency units if it is unstable) or insist on the
VTNC-visible — serializable — binding for free.

Run:  python examples/directory_service.py
"""

from repro import (
    EpsilonSpec,
    QueryET,
    ReadOp,
    ReplicatedSystem,
    SystemConfig,
    UniformLatency,
    UpdateET,
    WriteOp,
)
from repro.replica.host import ReadIndependentUpdates
from repro.sim.failures import FailureInjector, PartitionEvent


def main() -> None:
    system = ReplicatedSystem(
        ReadIndependentUpdates(versioning="multiversion"),
        SystemConfig(
            n_sites=4,
            seed=3,
            latency=UniformLatency(1.0, 5.0),
            retry_interval=4.0,
            initial=(("mail.example", "10.0.0.1"),),
        ),
    )
    injector = FailureInjector(
        system.sim, system.network, system.sites,
        on_heal=system.kick_queues,
    )
    # The two coasts lose contact between t=5 and t=35.
    injector.schedule_partition(
        PartitionEvent(
            (("site0", "site1"), ("site2", "site3")), at=5.0, duration=30.0
        )
    )

    # Admins on both sides of the partition rebind names concurrently.
    system.submit_at(
        8.0, UpdateET([WriteOp("mail.example", "10.0.0.2")]), "site0"
    )
    system.submit_at(
        12.0, UpdateET([WriteOp("mail.example", "10.0.0.3")]), "site3"
    )
    system.submit_at(
        15.0, UpdateET([WriteOp("web.example", "10.0.1.9")]), "site2"
    )

    # Lookups during the partition: a relaxed client takes the newest
    # local binding; a strict client insists on a stable one.
    system.submit_at(
        16.0,
        QueryET([ReadOp("mail.example")], EpsilonSpec(import_limit=2)),
        "site1",
    )
    system.submit_at(
        16.0,
        QueryET([ReadOp("mail.example")], EpsilonSpec(import_limit=0)),
        "site2",
    )

    quiescence = system.run_to_quiescence()

    for result in system.results:
        if not result.et.is_query:
            continue
        kind = "strict" if result.et.spec.is_strict else "relaxed"
        print(
            "%s lookup at %s during partition -> %s (error=%d)"
            % (
                kind,
                result.site,
                result.values.get("mail.example"),
                result.inconsistency,
            )
        )

    print()
    print("partition healed; quiescence at t=%.1f" % quiescence)
    print("replicas converged: %s" % system.converged())
    bindings = system.sites["site0"].values()
    print("final bindings: %s" % bindings)
    # Both sides' writes survive where they do not collide; colliding
    # rebinds resolve to one winner everywhere.
    assert system.converged()
    assert bindings["web.example"] == "10.0.1.9"
    assert bindings["mail.example"] in ("10.0.0.2", "10.0.0.3")


if __name__ == "__main__":
    main()
