"""Offline partition-log merging (paper section 5.3).

The optimistic partition-handling literature the paper surveys
(Davidson et al., Faissol, log transformation, OSCAR) repairs
divergence *after* reconnection: each partition keeps a log of the
update transactions it ran; at merge time the logs are combined using
operation properties — commutativity and overwrite — and transactions
that cannot be merged are **backed out** and must be re-run or
reported to the user.

ESR's point (and this module's reason to exist) is the contrast:
"instead of processing logs at reconnection time, our methods control
divergence dynamically".  The benchmark quantifies that contrast —
merge work and backouts grow with partition duration, while the
equivalent COMMU/RITU run needs no reconnection processing at all.

The merger is a faithful small implementation of the log-transformation
idea:

1. transactions whose operations all commute with every concurrent
   cross-partition transaction merge for free (COMMU-style classes
   B/C of Faissol's taxonomy),
2. timestamped overwrites merge by the Thomas rule (class A / RITU),
3. remaining cross-partition conflicts are resolved by backing out a
   minimal-ish set of transactions (greedy vertex cover on the
   conflict graph — classes D/E, the rollback family).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..core.operations import Operation, conflicts
from ..core.transactions import TransactionID
from ..storage.kv import KeyValueStore

__all__ = ["LoggedOp", "MergeResult", "merge_partition_logs", "apply_merged"]


@dataclass(frozen=True)
class LoggedOp:
    """One update operation in a partition log."""

    tid: TransactionID
    op: Operation


@dataclass
class MergeResult:
    """Outcome of merging two partition logs.

    Attributes:
        schedule: operations to apply on top of the common ancestor
            state, in a conflict-safe order.
        backed_out: transactions that could not be merged; their
            operations are excluded from the schedule and must be
            re-submitted (or surfaced to the application).
        cross_conflicts: conflicting cross-partition transaction pairs
            found before backout.
        ops_examined: merge work — the number of operation pairs the
            merger had to compare (the reconnection-cost metric).
    """

    schedule: List[LoggedOp] = field(default_factory=list)
    backed_out: Set[TransactionID] = field(default_factory=set)
    cross_conflicts: List[Tuple[TransactionID, TransactionID]] = field(
        default_factory=list
    )
    ops_examined: int = 0

    @property
    def merged_cleanly(self) -> bool:
        return not self.backed_out


def _ops_of(
    log: Sequence[LoggedOp],
) -> Dict[TransactionID, List[Operation]]:
    by_tid: Dict[TransactionID, List[Operation]] = {}
    for entry in log:
        by_tid.setdefault(entry.tid, []).append(entry.op)
    return by_tid


def merge_partition_logs(
    log_a: Sequence[LoggedOp],
    log_b: Sequence[LoggedOp],
) -> MergeResult:
    """Merge the update logs of two healed partitions.

    Within-partition order is preserved; only *cross*-partition
    relationships need resolution (each partition was internally SR
    while disconnected).  Transactions appearing in both logs are
    rejected — a partitioned system cannot have run one transaction on
    both sides.
    """
    result = MergeResult()
    a_tids = set(_ops_of(log_a))
    b_tids = set(_ops_of(log_b))
    shared = a_tids & b_tids
    if shared:
        raise ValueError(
            "transactions %s appear in both partition logs" % sorted(shared)
        )

    ops_a = _ops_of(log_a)
    ops_b = _ops_of(log_b)

    # 1+2. Find cross-partition conflicts under operation semantics:
    # commuting operations (including timestamped overwrites) are free.
    conflict_degree: Dict[TransactionID, int] = {}
    for tid_a, a_ops in ops_a.items():
        for tid_b, b_ops in ops_b.items():
            pair_conflicts = False
            for op_a in a_ops:
                for op_b in b_ops:
                    result.ops_examined += 1
                    if conflicts(op_a, op_b):
                        pair_conflicts = True
            if pair_conflicts:
                result.cross_conflicts.append((tid_a, tid_b))
                conflict_degree[tid_a] = conflict_degree.get(tid_a, 0) + 1
                conflict_degree[tid_b] = conflict_degree.get(tid_b, 0) + 1

    # 3. Greedy backout: repeatedly drop the transaction involved in
    # the most unresolved cross conflicts (ties: fewest own operations,
    # then higher tid — later work is cheaper to redo).
    remaining = list(result.cross_conflicts)
    while remaining:
        degree: Dict[TransactionID, int] = {}
        for tid_a, tid_b in remaining:
            degree[tid_a] = degree.get(tid_a, 0) + 1
            degree[tid_b] = degree.get(tid_b, 0) + 1

        def cost(tid: TransactionID) -> Tuple[int, int, int]:
            own = ops_a.get(tid) or ops_b.get(tid) or []
            return (-degree[tid], len(own), -tid)

        victim = sorted(degree, key=cost)[0]
        result.backed_out.add(victim)
        remaining = [
            pair for pair in remaining if victim not in pair
        ]

    # Emit the merged schedule: partition A's surviving operations in
    # their original order, then partition B's.  Safe because every
    # surviving cross-partition pair commutes.
    for entry in log_a:
        if entry.tid not in result.backed_out:
            result.schedule.append(entry)
    for entry in log_b:
        if entry.tid not in result.backed_out:
            result.schedule.append(entry)
    return result


def apply_merged(
    store: KeyValueStore, result: MergeResult, default: object = 0
) -> KeyValueStore:
    """Apply a merged schedule to the common-ancestor state."""
    for entry in result.schedule:
        store.apply(entry.op, default=default)
    return store
