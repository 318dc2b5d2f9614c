"""Correctness gate: run at the end of every workload.

The harness keeps a :class:`Ledger` of what it observed *from outside*
(acknowledged updates, reads that broke their promise) and hands it,
with every replica's final store, to :func:`verify`.  The result
decides ``correct`` in the output line and the exit status.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

__all__ = ["Ledger", "verify"]

#: ``site name -> store`` for the replicas of one group.
GroupValues = Dict[str, Dict[str, Any]]


@dataclass
class Ledger:
    """What the client side saw over the whole run (warm-ups included)."""

    #: sum every data key held after preload.
    preload_total: int = 0
    #: acknowledged transfer ETs (each increments exactly one tally).
    acked_transfers: int = 0
    #: acknowledged single-increment ETs (each adds 1 to a data key).
    acked_increments: int = 0
    #: bounded reads whose reported inconsistency exceeded their epsilon.
    bounded_violations: int = 0
    #: session reads served below the token they were issued with.
    session_violations: int = 0
    attempted: int = 0
    failed: int = 0
    #: error code (or exception class) -> failed requests.
    errors: Dict[str, int] = field(default_factory=dict)


def verify(groups: Sequence[GroupValues], ledger: Ledger) -> List[str]:
    """Every way the run was wrong (empty when it was right).

    ``groups`` holds the final stores read *after* ``settle``: one
    entry per replica group, each mapping site name to its store.
    """
    problems: List[str] = []
    merged: Dict[str, Any] = {}
    for index, group in enumerate(groups):
        stores = list(group.items())
        if not stores:
            problems.append("group %d has no running replica" % index)
            continue
        first_site, first = stores[0]
        for site, store in stores[1:]:
            if store != first:
                differing = sorted(
                    key
                    for key in set(first) | set(store)
                    if first.get(key) != store.get(key)
                )
                problems.append(
                    "replicas diverge: %s vs %s differ on %d keys (e.g. %s)"
                    % (first_site, site, len(differing), differing[:3])
                )
        merged.update(first)
    tally = sum(v for k, v in merged.items() if k.startswith("tally_"))
    data = sum(v for k, v in merged.items() if not k.startswith("tally_"))
    if tally != ledger.acked_transfers:
        problems.append(
            "tallies sum to %s but %d transfers were acknowledged "
            "(an acked update was lost or applied twice)"
            % (tally, ledger.acked_transfers)
        )
    expected = ledger.preload_total + ledger.acked_increments
    if data != expected:
        problems.append(
            "data keys sum to %s, expected %d (preload %d + %d acked "
            "increments; transfers conserve the total)"
            % (data, expected, ledger.preload_total, ledger.acked_increments)
        )
    if ledger.bounded_violations:
        problems.append(
            "%d bounded reads reported inconsistency above their epsilon"
            % ledger.bounded_violations
        )
    if ledger.session_violations:
        problems.append(
            "%d session reads were served below their token"
            % ledger.session_violations
        )
    if ledger.failed:
        problems.append(
            "%d of %d requests failed %r"
            % (ledger.failed, ledger.attempted, ledger.errors)
        )
    if ledger.attempted < 1:
        problems.append("no request was attempted")
    return problems
