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
  coincides with the epsilon-serial test on the recorded history, so
  :func:`is_esr` = :func:`is_epsilon_serial`, with the additional
  per-query error accounting exposed by :func:`query_overlaps`.
* **1SR over replicas** — the per-site histories, mapped to logical
  keys, merge into one SR history, and all replicas of each logical
  object hold the same value at quiescence.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .history import Event, History, SerializationGraph
from .operations import conflicts
from .transactions import TransactionID

__all__ = [
    "is_serializable",
    "is_serial",
    "is_epsilon_serial",
    "is_esr",
    "serial_witness",
    "is_serializable_bruteforce",
    "merge_site_histories",
    "is_one_copy_serializable",
    "replicas_converged",
]


def is_serial(history: History) -> bool:
    """True when the history is a serial log (no interleaving)."""
    return history.is_serial()


def is_serializable(history: History) -> bool:
    """Conflict-serializability via serialization-graph acyclicity."""
    return history.serialization_graph().is_acyclic()


def serial_witness(history: History) -> Optional[List[TransactionID]]:
    """A serial transaction order equivalent to the history, or None."""
    return history.serialization_graph().topological_order()


def is_epsilon_serial(history: History) -> bool:
    """The paper's epsilon-serial test: update projection must be SR.

    'A log containing only query ETs and update ETs is called an
    epsilon-serial log if, after deleting query ETs from the log, the
    remaining update ETs form an SRlog.'
    """
    return is_serializable(history.without_queries())


def is_esr(history: History) -> bool:
    """ESR correctness of a recorded history.

    A history is ESR when it is (equivalent to) an epsilon-serial log.
    Under conflict semantics the recorded history is ESR iff its
    update-ET projection is conflict-SR, which is the epsilon-serial
    test; query-ET error is bounded separately via overlaps.
    """
    return is_epsilon_serial(history)


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


def query_overlaps(history: History) -> Dict[TransactionID, List[TransactionID]]:
    """Conflicting-overlap sets of the query transactions in a history.

    For each query ET, the update ETs that (a) overlap it in time —
    had not finished at the query's first operation or started during
    it — and (b) actually conflict with it on some key (paper section
    2.1's parenthetical: 'update ETs that actually affect objects that
    the query ET seeks to access').  The size of this set upper-bounds
    the query's inconsistency.
    """
    first: Dict[TransactionID, int] = {}
    last: Dict[TransactionID, int] = {}
    for idx, ev in enumerate(history):
        first.setdefault(ev.tid, idx)
        last[ev.tid] = idx

    update_tids = set(history.update_tids())
    result: Dict[TransactionID, List[TransactionID]] = {}
    for qtid in history.query_tids():
        q_ops = history.operations_of(qtid)
        overlap: List[TransactionID] = []
        for utid in update_tids:
            time_overlap = not (
                last[utid] < first[qtid] or first[utid] > last[qtid]
            )
            if not time_overlap:
                continue
            u_ops = history.operations_of(utid)
            if any(conflicts(q, u) for q in q_ops for u in u_ops):
                overlap.append(utid)
        result[qtid] = sorted(overlap)
    return result


def merge_site_histories(
    site_histories: Mapping[str, History],
    key_map: Optional[Mapping[str, str]] = None,
) -> History:
    """Merge per-site histories into one logical history.

    Events are interleaved by ``(time, site, position)``; physical copy
    names are rewritten to logical keys through ``key_map`` when given
    (identity otherwise).  The merged history is what the 1SR test runs
    on: one-copy serializability asks whether the multi-site execution
    is equivalent to a serial execution on a single logical copy.
    """
    tagged: List[Tuple[float, str, int, Event]] = []
    for site, hist in sorted(site_histories.items()):
        for pos, ev in enumerate(hist):
            tagged.append((ev.time, site, pos, ev))
    tagged.sort(key=lambda item: (item[0], item[1], item[2]))

    merged = History()
    for _, site, _, ev in tagged:
        op = ev.op
        if key_map and op.key in key_map:
            # Operations are frozen; rebuild with the logical key.
            op = replace(op, key=key_map[op.key])
        merged.append(Event(ev.tid, op, site, ev.time))
    for site_hist in site_histories.values():
        for tid, et in site_hist._transactions.items():  # noqa: SLF001
            if et is not None:
                merged._transactions[tid] = et  # noqa: SLF001
    return merged


def is_one_copy_serializable(
    site_histories: Mapping[str, History],
    key_map: Optional[Mapping[str, str]] = None,
) -> bool:
    """1SR test on per-site histories (update transactions only).

    The paper's convergence guarantee is that once all MSets are
    processed, the committed update ETs are equivalent to a serial
    execution on a one-copy database.  Every update ET executes at
    every replica, so the test is that the *union* of the per-site
    serialization graphs (update projection, physical keys mapped to
    logical ones) is acyclic: a cycle would exhibit two sites applying
    conflicting updates in opposite orders, which can never be
    rearranged into one serial one-copy execution.

    Merging the raw logs by wall-clock time and testing that single
    log would be wrong — replicas legitimately apply the same serial
    order at different times, which looks like an interleaving cycle
    in the merged log even though the execution is perfectly 1SR.
    """
    union = SerializationGraph()
    for site in sorted(site_histories):
        hist = site_histories[site]
        if key_map:
            mapped = History()
            for ev in hist:
                op = ev.op
                if op.key in key_map:
                    op = replace(op, key=key_map[op.key])
                mapped.append(Event(ev.tid, op, ev.site, ev.time))
            for tid, et in hist._transactions.items():  # noqa: SLF001
                if et is not None:
                    mapped._transactions[tid] = et  # noqa: SLF001
            hist = mapped
        graph = hist.without_queries().serialization_graph()
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
