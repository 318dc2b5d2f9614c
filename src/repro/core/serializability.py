"""Correctness checkers: SR, epsilon-serial, ESR, and replicated 1SR.

These checkers are the ground truth for the whole reproduction: every
simulation records a global history, and the test suite asserts the
paper's guarantees against these functions.

Definitions implemented (paper section 2.1):

* **SRlog** — a history whose serialization graph is acyclic
  (conflict-serializability, sufficient for view equivalence to a
  serial log under the R/W model, and the criterion the paper's own
  divergence-control methods enforce).
* **epsilon-serial log** — a history of query and update ETs such that
  deleting the query ETs leaves an SRlog.
* **ESRlog** — a history equivalent to an epsilon-serial log.  For the
  conflict-based model used throughout the paper's methods this
  coincides with the epsilon-serial test on the recorded history
  (:func:`is_epsilon_serial`); per-query error is bounded by the
  online overlap (``core/overlap.py``).
* **1SR over replicas** — the update ETs' global order is SR, and all
  replicas of each logical object hold the same value at quiescence.
"""

from __future__ import annotations

import itertools
from typing import Any, Mapping

from .history import History, SerializationGraph

__all__ = [
    "is_serializable",
    "is_serial",
    "is_epsilon_serial",
    "is_serializable_bruteforce",
    "is_one_copy_serializable",
    "replicas_converged",
]


def is_serial(history: History) -> bool:
    """True when the history is a serial log (no interleaving)."""
    return history.is_serial()


def is_serializable(history: History) -> bool:
    """Conflict-serializability via serialization-graph acyclicity."""
    return history.serialization_graph().is_acyclic()


def is_epsilon_serial(history: History) -> bool:
    """The paper's epsilon-serial test: update projection must be SR.

    'A log containing only query ETs and update ETs is called an
    epsilon-serial log if, after deleting query ETs from the log, the
    remaining update ETs form an SRlog.'
    """
    return is_serializable(history.without_queries())


def is_serializable_bruteforce(history: History) -> bool:
    """Exhaustive serializability test for small logs (test oracle).

    Tries every permutation of the transactions and checks conflict
    equivalence: the history is SR iff some serial order preserves the
    relative order of every conflicting pair.  Exponential — intended
    only as a property-test oracle for histories of <= 7 transactions.
    """
    tids = history.tids
    if len(tids) > 8:
        raise ValueError("brute-force checker limited to 8 transactions")
    pairs = history.conflict_pairs()
    for perm in itertools.permutations(tids):
        position = {tid: i for i, tid in enumerate(perm)}
        if all(position[a.tid] < position[b.tid] for a, b in pairs):
            return True
    return not tids


def is_one_copy_serializable(site_histories: Mapping[str, History]) -> bool:
    """1SR test on per-site histories (update transactions only).

    The paper's convergence guarantee is that once all MSets are
    processed, the committed update ETs are equivalent to a serial
    execution on a one-copy database.  Every update ET executes at
    every replica, so the test is that the *union* of the per-site
    serialization graphs (update projection) is acyclic: a cycle would exhibit two sites applying
    conflicting updates in opposite orders, which can never be
    rearranged into one serial one-copy execution.

    Merging the raw logs by wall-clock time and testing that single
    log would be wrong — replicas legitimately apply the same serial
    order at different times, which looks like an interleaving cycle
    in the merged log even though the execution is perfectly 1SR.
    """
    union = SerializationGraph()
    for site in sorted(site_histories):
        graph = site_histories[site].without_queries().serialization_graph()
        for node in graph.nodes:
            union.add_node(node)
            for succ in graph.successors(node):
                union.add_edge(node, succ)
    return union.is_acyclic()


def replicas_converged(site_values: Mapping[str, Mapping[str, Any]]) -> bool:
    """True when every site holds identical values for shared keys.

    ``site_values`` maps site name -> {logical key -> value}.  The test
    requires agreement on the intersection of key sets and identical
    key sets across sites (a missing replica is non-convergence).
    """
    sites = sorted(site_values)
    if len(sites) <= 1:
        return True
    reference = site_values[sites[0]]
    for site in sites[1:]:
        values = site_values[site]
        if set(values) != set(reference):
            return False
        for key, val in reference.items():
            other = values[key]
            if _normalize(other) != _normalize(val):
                return False
    return True


def _normalize(value: Any) -> Any:
    """Canonical form for convergence comparison.

    Append-only sequences converge as multisets (COMMU treats appends
    as commutative); everything else compares by equality.
    """
    if isinstance(value, tuple):
        try:
            return tuple(sorted(value, key=repr))
        except TypeError:
            return value
    return value
