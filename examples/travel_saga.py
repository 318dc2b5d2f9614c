#!/usr/bin/env python
"""Travel booking saga under COMPE (paper sections 4, 4.2).

A trip books a flight seat, a hotel room, and a rental car as three
update ETs forming a saga.  Each step commits optimistically and
propagates asynchronously; if a later step fails, the earlier steps are
compensated at every replica (backward replica control).

The example shows both saga outcomes, and the conservative accounting
queries get: while a saga is open, its steps keep their
potential-compensation charge raised, so a concurrent availability
query knows exactly how much of what it read might still be undone.

``--live`` runs the same story against a real 3-replica TCP cluster
(method ``compe``): saga steps are ``update(..., saga=...)`` calls,
the abort is a ``decide("abort", saga=...)`` whose reply names every
compensated step tid, and a booking that fails at submission time
(``abort=True``) surfaces as a typed ``COMPENSATED`` failure.

Run:  python examples/travel_saga.py
      python examples/travel_saga.py --live
"""

from repro import (
    DecrementOp,
    EpsilonSpec,
    QueryET,
    ReadOp,
    ReplicatedSystem,
    SystemConfig,
    UniformLatency,
    UpdateET,
)
from repro.replica.host import CompensationBased

INVENTORY = (("flight_seats", 10), ("hotel_rooms", 5), ("rental_cars", 3))


def build():
    return ReplicatedSystem(
        CompensationBased(decision_delay=2.0),
        SystemConfig(
            n_sites=3,
            seed=5,
            latency=UniformLatency(0.5, 2.0),
            initial=INVENTORY,
        ),
    )


def run_saga(system, saga_id, fail_at=None):
    """Book one unit of each resource; step ``fail_at`` aborts."""
    steps = [
        (UpdateET([DecrementOp("flight_seats", 1)]), fail_at == 0),
        (UpdateET([DecrementOp("hotel_rooms", 1)]), fail_at == 1),
        (UpdateET([DecrementOp("rental_cars", 1)]), fail_at == 2),
    ]
    outcomes = []
    system._pending_ets += 1

    def done(results):
        system._pending_ets -= 1
        outcomes.extend(results)

    system.method.submit_saga(saga_id, steps, "site0", done)
    return outcomes


def main() -> None:
    print("== Successful booking saga ==")
    system = build()
    run_saga(system, "trip-1")
    # A concurrent availability query with room for uncertainty.
    system.submit_at(
        1.0,
        QueryET(
            [ReadOp("flight_seats"), ReadOp("hotel_rooms"),
             ReadOp("rental_cars")],
            EpsilonSpec(import_limit=3),
        ),
        "site1",
    )
    system.run_to_quiescence()
    query = [r for r in system.results if r.et.is_query][0]
    print(
        "availability query saw %s with %d potentially-compensatable "
        "updates imported" % (query.values, query.inconsistency)
    )
    final = system.sites["site2"].values()
    print("final inventory everywhere: %s" % final)
    assert final == {
        "flight_seats": 9, "hotel_rooms": 4, "rental_cars": 2,
    }
    assert system.converged()

    print()
    print("== Saga whose last step fails (no rental cars) ==")
    system = build()
    run_saga(system, "trip-2", fail_at=2)
    system.run_to_quiescence()
    stats = system.method.stats
    final = system.sites["site1"].values()
    print(
        "compensations: %d direct, %d rollback+replay"
        % (stats.direct_compensations, stats.rollback_replays)
    )
    print("final inventory everywhere: %s" % final)
    # The flight and hotel bookings were compensated at every replica:
    # the trip never happened.
    assert final == {
        "flight_seats": 10, "hotel_rooms": 5, "rental_cars": 3,
    }
    assert system.converged()
    print("all replicas restored — backward replica control worked")


def main_live() -> None:
    """The same travel saga on a real TCP cluster (COMPE engine)."""
    import asyncio

    from repro.live import LiveCluster, LiveETFailed

    async def run() -> None:
        cluster = LiveCluster(n_sites=3, method="compe")
        await cluster.start()
        try:
            booking = await cluster.client(cluster.names[0])
            audit = await cluster.client(cluster.names[1])
            for key, stock in INVENTORY:
                await booking.increment(key, stock)
            await cluster.settle()

            print("== Successful booking saga (live) ==")
            for key, _ in INVENTORY:
                reply = await booking.update(
                    [DecrementOp(key, 1)], saga="trip-1"
                )
                print("  booked %s (tid %s)" % (key, reply["tid"]))
            # A concurrent availability query at another replica: the
            # open saga's steps are potentially-compensatable, so a
            # bounded read must budget for importing them.
            result = await audit.query(
                [key for key, _ in INVENTORY],
                spec=EpsilonSpec(import_limit=3),
            )
            print(
                "  availability query saw %s with %d potentially-"
                "compensatable updates imported"
                % (result.values, result.inconsistency)
            )
            reply = await booking.decide("commit", saga="trip-1")
            print("  committed saga steps: %s" % (reply["decided"],))
            await cluster.settle()
            values = (await cluster.site_values())[cluster.names[2]]
            assert values == {
                "flight_seats": 9, "hotel_rooms": 4, "rental_cars": 2,
            }, values
            print("  final inventory everywhere: %s" % values)

            print()
            print("== Saga whose last step fails (live) ==")
            for key in ("flight_seats", "hotel_rooms"):
                await booking.update([DecrementOp(key, 1)], saga="trip-2")
            try:
                # No rental cars: the last step aborts at submission.
                # It applies optimistically, is undone by backward
                # recovery, and fails with the typed COMPENSATED code.
                await booking.update(
                    [DecrementOp("rental_cars", 1)],
                    saga="trip-2",
                    abort=True,
                )
            except LiveETFailed as exc:
                assert exc.code == "COMPENSATED", exc.code
                print(
                    "  car rental failed: %s (undone tids: %s)"
                    % (exc.code, ", ".join(exc.compensated_tids))
                )
            reply = await booking.decide("abort", saga="trip-2")
            print(
                "  aborted the saga; compensated steps: %s"
                % (reply["compensated"],)
            )
            await cluster.settle()
            converged = await cluster.converged()
            values = (await cluster.site_values())[cluster.names[0]]
            assert converged and values == {
                "flight_seats": 9, "hotel_rooms": 4, "rental_cars": 2,
            }, (converged, values)
            print("  final inventory everywhere: %s" % values)
            print(
                "all replicas restored over TCP — backward replica "
                "control worked"
            )
            await booking.close()
            await audit.close()
        finally:
            await cluster.stop()

    asyncio.run(run())


if __name__ == "__main__":
    import sys

    if "--live" in sys.argv[1:]:
        main_live()
    else:
        main()
