"""Replica-control engines: one site's method logic, minus the transport.

An engine owns one site's store and divergence-control state and runs
the method-specific steps of the paper's framework — update
validation, MSet processing and query admission.  The simulator
(:class:`~repro.replica.host.EngineHost`, on the simulated clock) and
the live server (on the wall clock) run the same classes.  This module
holds the base, COMMU (§3.2), RITU (§3.3, both variants), ORDUP (§3.1)
and COMPE (§4); the live-only ROWA baseline subclasses
:class:`CommuLiveEngine` in :mod:`repro.live.engine`.

MSets go in (:meth:`LiveEngine.accept`, local or remote; recovery
replays through it; a peer batch in the form
:meth:`LiveEngine.decode_remote` chose, an origin's commit group in
the form :attr:`LiveEngine.plain_form` allows), state comes out; the host
owns every file.  Every mutator — ``accept``, ``accept_batch``,
``fully_acked_many``, ``hold_counters``, ``checkpoint``, ``restore`` —
is a plain method, called in the step that delivered its MSets.  A query that can be
charged now is answered in one step (:meth:`LiveEngine.read_now`);
otherwise it reads one key per step (``open_query``, ``read_key``,
``restart_query``, ``close_query``) and the async ``query`` drives the
same steps: a blocked COMMU query parks a future under each of its
keys, woken by the step that frees one; an ORDUP query converts to
ordered mode.  Instruments are no-ops until the host binds a registry
(:meth:`LiveEngine.bind_observability`).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.inconsistency import COUNT_BUCKETS
from ..core.operations import Operation, TimestampedWriteOp, commutes, is_write
from ..core.transactions import EpsilonSpec, UNLIMITED
from ..storage.kv import KeyValueStore, StoreSnapshot
from ..storage.mvstore import MultiVersionStore, NoVisibleVersion
from ..storage.oplog import OperationLog
from .base import LockCounterSiteState, OrderedApplyBuffer
from .mset import (
    MSet,
    MSetKind,
    decode_mset,
    decode_op,
    decode_payloads,
    encode_mset,
    encode_op,
)

__all__ = [
    "LiveEngine",
    "CommuLiveEngine",
    "OrdupLiveEngine",
    "RituLiveEngine",
    "RituMvLiveEngine",
    "CompeLiveEngine",
    "QueryOutcome",
    "QueryTimeout",
    "NonCommutativeError",
    "NotReadIndependentError",
    "check_ops_commutative",
    "check_ops_read_independent",
]

#: the tid of a ``(tid, keys)`` pair, and the operations of a remote
#: ``(tid, ops)`` pair; the entry types of a remote batch of plain
#: updates alone.
_tid_of = itemgetter(0)
_ops_of = itemgetter(1)
_PAIRS = {tuple}


class NonCommutativeError(ValueError):
    """Raised when an update ET's writes are not mutually commutative."""


class NotReadIndependentError(ValueError):
    """Raised when an update ET contains non-blind writes."""


def check_ops_commutative(
    ops: Sequence[Operation], who: str = "the update"
) -> None:
    """Reject operations violating the COMMU operation restriction.

    Reads inside update ETs are rejected too: a read creates R/W
    dependencies that do not commute with concurrent writes (Table 3's
    R_U/W_U cell is "Comm", and reads rarely commute with updates),
    which would break the method's premise that MSets can apply in any
    order.  Use ORDUP for read-modify-write updates.  ``who`` names the
    update in the error.
    """
    if any(op.is_read_op for op in ops):
        raise NonCommutativeError(
            "%s mixes reads into a COMMU update; read-modify-"
            "write updates need ordered execution (ORDUP)" % who
        )
    writes = [op for op in ops if is_write(op)]
    if len({op.key for op in writes}) == len(writes):
        return  # every key distinct: nothing to compare
    for a, b in itertools.combinations(writes, 2):
        if a.key == b.key and not commutes(a, b):
            raise NonCommutativeError(
                "operations %r and %r of %s do not commute" % (a, b, who)
            )


def check_ops_read_independent(
    ops: Sequence[Operation], who: str = "the update"
) -> None:
    """Reject operations whose writes depend on reads (non-blind).

    Reads inside update ETs are rejected outright: RITU's whole premise
    is that updates have no R/W dependencies ("blind writes"); an
    update that reads is not read-independent.  ``who`` names the
    update in the error.
    """
    if any(op.is_read_op for op in ops):
        raise NotReadIndependentError(
            "%s reads inside a RITU update; RITU updates must "
            "be blind (read-independent)" % who
        )
    for op in ops:
        if is_write(op) and not op.read_independent:
            raise NotReadIndependentError(
                "operation %r of %s is not read-independent" % (op, who)
            )


class _Unbound:
    """A no-op instrument and trace: what an engine records into until
    its host binds real ones."""

    def inc(self, *args: Any, **kwargs: Any) -> None:
        pass

    set = set_max = observe = event = inc


_UNBOUND = _Unbound()


class QueryTimeout(RuntimeError):
    """A query could not be admitted within its deadline."""


@dataclass
class QueryOutcome:
    """What a query observed, with its error accounting."""

    values: Dict[str, Any] = field(default_factory=dict)
    #: number of distinct concurrent update ETs whose effects were
    #: observed (the paper's inconsistency counter).
    inconsistency: int = 0
    #: tids of the imported update ETs.
    overlap: Tuple[Any, ...] = ()
    #: times the query blocked on divergence control.
    waits: int = 0


class _QueryBudget:
    """Import accounting for one query over ``keys``: count and
    value-drift limits."""

    def __init__(self, spec: EpsilonSpec, keys: Sequence[str] = ()) -> None:
        self.spec = spec
        self.keys = frozenset(keys)
        self.imported: Set[Any] = set()
        self.drift_used = 0.0
        #: ORDUP: the applied frontier the query started at.
        self.frontier: Tuple[int, int] = (0, 0)

    def try_charge(
        self,
        sources: Set[Any],
        drift_of: Callable[[Any], Optional[float]],
    ) -> bool:
        """Charge for each new source; False (and no change) when over."""
        new = sorted(sources - self.imported)
        if not new:
            return True
        if len(self.imported) + len(new) > self.spec.import_limit:
            return False
        if self.spec.value_limit != UNLIMITED:
            total = 0.0
            for source in new:
                drift = drift_of(source)
                if drift is None:  # unknown drift counts as unbounded
                    return False
                total += drift
            if self.drift_used + total > self.spec.value_limit:
                return False
            self.drift_used += total
        self.imported.update(new)
        return True

    def reset(self) -> None:
        self.imported.clear()
        self.drift_used = 0.0

    def outcome(
        self, values: Dict[str, Any], waits: int = 0
    ) -> "QueryOutcome":
        """The query's answer, charged with what this budget imported."""
        return QueryOutcome(
            values=values,
            inconsistency=len(self.imported),
            overlap=tuple(sorted(self.imported)),
            waits=waits,
        )


class LiveEngine:
    """Shared machinery for the replica-control engines."""

    method_name = "?"
    #: True when updates must acquire a global order token first.
    needs_order = False
    #: True when an update commit waits for every peer's durable ack
    #: (the synchronous write-all baseline).
    sync_commit = False
    #: True when a local update of writes only (no saga) commits as its
    #: request arrays rather than an :class:`MSet`: it enters
    #: :meth:`accept_batch` as ``(tid, arrays, keys)``, writes to
    #: distinct keys pass the method restriction as they are, and the
    #: origin takes a burst of such updates as one run.
    plain_form = False

    def __init__(
        self, site: str, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.site = site
        self.clock = clock
        self.store = KeyValueStore()
        #: key -> futures of the queries parked on it: a parked query
        #: files one future under each of its keys (:meth:`_park`).
        self._parked: Dict[str, Set["asyncio.Future[None]"]] = {}
        #: the parked futures of strict (epsilon = 0) queries.
        self._parked_strict: Set["asyncio.Future[None]"] = set()
        #: tid -> worst-case value drift of that update (None=unbounded).
        self._drift: Dict[Any, Optional[float]] = {}
        #: tid -> reasons a query could still be charged for it (see
        #: :meth:`_pin`); its drift is dropped with the last one.
        self._pins: Dict[Any, int] = {}
        #: tid -> values read by a read-modify-report update at its
        #: origin's apply instant (standard read-then-write semantics).
        self.read_results: Dict[Any, Dict[str, Any]] = {}
        self.applied_count = 0
        #: instant of the last applied MSet (None before the first) —
        #: exposed as apply staleness for failure-detection dashboards.
        self.last_applied_at: Optional[float] = None

    # What the engine records into, each a no-op until
    # :meth:`bind_observability`.
    trace = _UNBOUND
    _applied_counter = _apply_hist = _queries_counter = _UNBOUND
    _epsilon_last = _epsilon_max = _epsilon_violations = _UNBOUND
    _inconsistency_hist = _tracked_gauge = _history_gauge = _UNBOUND

    def bind_observability(self, registry: Any, trace: Any) -> None:
        """Record into instruments of the metrics ``registry`` and into
        ``trace`` from now on.

        Called by the hosting server once per engine; an engine nobody
        binds (the simulator's) records into no-ops.
        """
        self.trace = trace
        self._applied_counter = registry.counter(
            "applied_msets_total", "MSets applied by the engine"
        )
        self._apply_hist = registry.histogram(
            "apply_batch_seconds", "time spent applying one delivered batch"
        )

        # An engine is one method for life: the ``method``-labelled
        # families are bound to their one child here, not per query.
        def per_method(make: Any, name: str, text: str, **kw: Any) -> Any:
            family = make(name, text, labels=("method",), **kw)
            return family.labels(method=self.method_name)

        counter, gauge = registry.counter, registry.gauge
        self._queries_counter = per_method(
            counter, "queries_total", "query ETs answered"
        )
        self._epsilon_last = per_method(
            gauge, "epsilon_last",
            "inconsistency observed by the most recent query",
        )
        self._epsilon_max = per_method(
            gauge, "epsilon_max",
            "largest inconsistency any query has observed",
        )
        self._epsilon_violations = per_method(
            counter, "epsilon_violations_total",
            "queries whose observed inconsistency exceeded their limit",
        )
        self._inconsistency_hist = per_method(
            registry.histogram, "query_inconsistency",
            "distribution of per-query inconsistency counters",
            buckets=COUNT_BUCKETS,
        )
        self._tracked_gauge = registry.gauge(
            "engine_tracked_tids",
            "update tids whose drift is resident: in flight, or "
            "applied since the oldest active query began",
        )
        self._history_gauge = registry.gauge(
            "engine_history_entries",
            "per-key apply-history entries resident for "
            "mixed-observation detection",
        )

    def refresh_gauges(self) -> None:
        """Publish resident-state sizes; called at scrape time."""
        self._tracked_gauge.set(len(self._pins))
        self._history_gauge.set(self.history_entries())

    def history_entries(self) -> int:
        """Apply-history entries a query could still read."""
        return 0

    def note_query_outcome(
        self, outcome: "QueryOutcome", spec: EpsilonSpec
    ) -> None:
        """Publish one query's error accounting (epsilon gauges/trace)."""
        self._queries_counter.inc()
        self._epsilon_last.set(outcome.inconsistency)
        self._epsilon_max.set_max(outcome.inconsistency)
        self._inconsistency_hist.observe(outcome.inconsistency)
        limit = spec.import_limit
        if limit != UNLIMITED and outcome.inconsistency > limit:
            self._epsilon_violations.inc()
        self.trace.event(
            "query",
            ("method", "inconsistency", "limit", "waits"),
            self.method_name,
            outcome.inconsistency,
            None if limit == UNLIMITED else limit,
            outcome.waits,
        )

    # -- update path ---------------------------------------------------------

    def validate_update(self, ops: Sequence[Operation]) -> None:
        """Raise when the operation mix violates the method restriction."""

    def make_mset(
        self,
        tid: Any,
        ops: Sequence[Operation],
        order: Optional[Tuple[int, int]] = None,
        info: Tuple[Tuple[str, Any], ...] = (),
    ) -> MSet:
        """Build the update MSet for a locally accepted ET.

        The method hook of the update path: RITU stamps the writes with
        the origin's Lamport clock here, and the multiversion variant
        additionally turns the order token into the global transaction
        number.  The server always routes local update construction
        through this method so the MSet that enters the durable queues
        is already in method form.
        """
        return MSet(
            tid,
            MSetKind.UPDATE,
            tuple(ops),
            origin=self.site,
            order=order,
            info=info,
        )

    def decode_remote(
        self, src: str, first: int, payloads: Sequence[Any]
    ) -> List[Any]:
        """The form this engine applies each entry of a peer batch in —
        the payloads ``src`` logged as ``first``, ``first + 1``, ...
        (:func:`~repro.replica.mset.decode_payloads`) — for
        :meth:`accept_batch` with ``local=False``: by default its
        :class:`MSet`.  Every refusal is a ``ProtocolError``, raised
        before the receiver records anything."""
        return decode_payloads(src, first, payloads)

    def accept(self, mset: MSet, local: bool = False) -> List[MSet]:
        """Process one delivered MSet; returns the MSets applied now.

        ``local`` marks the origin's own copy (it may carry divergence
        obligations a remote copy does not).  Recovery replays both
        kinds through this same entry point.  Like every mutator it is a
        plain method: it finishes in the step that calls it.
        """
        return self._accept_all((mset,), local)

    def accept_batch(
        self, msets: Sequence[Any], local: bool = False
    ) -> List[Any]:
        """Process a whole delivered batch in one step; returns the
        entries applied now.  A remote batch may be in the form
        :meth:`decode_remote` returned.

        The batched propagation path delivers up to a full frame
        (``channel.FRAME_MSETS``) at once; history pruning and the apply
        histogram then run once per batch, not once per MSet, and COMMU
        and ROWA apply a remote batch in one store pass.
        """
        return self._accept_all(msets, local)

    def _accept_all(self, msets: Sequence[MSet], local: bool) -> List[MSet]:
        started = self.clock()
        applied = self._accept_msets(msets, local)
        self._forget_unreachable()
        self._apply_hist.observe(self.clock() - started)
        self._applied_counter.inc(len(applied))
        return applied

    def _accept_msets(
        self, msets: Sequence[MSet], local: bool
    ) -> List[MSet]:
        """Method-specific processing of a delivered batch, in order:
        one :meth:`_accept_one` per MSet unless the method can do
        better."""
        applied: List[MSet] = []
        for mset in msets:
            applied.extend(self._accept_one(mset, local))
        return applied

    def _accept_one(self, mset: MSet, local: bool) -> List[MSet]:
        """Method-specific MSet processing."""
        raise NotImplementedError

    def _forget_unreachable(self) -> None:
        """Drop apply history no active query can still read (once per
        delivered batch).  No-op without one."""

    def _note_drift(self, tid: Any, ops: Sequence, pins: int = 1) -> None:
        """Record the worst-case drift of update ``tid``'s operations
        ``ops``, pinned ``pins`` times.  An ``inc``/``dec`` wire array
        drifts by its amount; any other array is built to be asked."""
        total: Optional[float] = 0.0
        for op in ops:
            if type(op) is list:
                if op[0] == "inc" or op[0] == "dec":
                    total += abs(op[2])
                    continue
                op = decode_op(op)
            delta = op.value_delta()
            if delta is None:
                total = None
                break
            total += delta
        self._drift[tid] = total
        self._pin(tid, pins)

    def _pin(self, tid: Any, pins: int = 1) -> None:
        """One more reason a query can still be charged for ``tid``:
        it is inside the apply history, holds a lock-counter, is
        undecided, is a key's last writer, or wrote above the VTNC.
        Each reason ends with one :meth:`_unpin`."""
        self._pins[tid] = self._pins.get(tid, 0) + pins

    def _unpin(self, *tids: Any) -> None:
        """End one reason for each of ``tids``, in one loop."""
        pins, drift = self._pins, self._drift
        for tid in tids:
            left = pins.get(tid, 0) - 1
            if left > 0:
                pins[tid] = left
            else:
                pins.pop(tid, None)
                drift.pop(tid, None)

    def _apply_ops(self, mset: MSet) -> None:
        self.store.apply_many(self._reads_then_ops(mset))
        self.applied_count += 1
        self.last_applied_at = self.clock()

    def _reads_then_ops(self, mset: MSet) -> Tuple[Operation, ...]:
        """``mset``'s operations, called at its apply instant: the
        reads of an update this site originated execute here, before
        its own writes (read-modify-report)."""
        reads = mset.get_info("reads")
        if reads and mset.origin == self.site:
            self.read_results[mset.tid] = {
                key: self.store.get(key, 0) for key in reads
            }
        return mset.ops

    def pop_read_results(self, tid: Any) -> Dict[str, Any]:
        return self.read_results.pop(tid, {})

    def fully_acked_many(
        self, items: Sequence[Tuple[Any, Sequence[str]]]
    ) -> List[Any]:
        """Every peer durably holds these local updates' MSets, given
        as (tid, keys) pairs; returns their tids, in order, for the
        caller's ``update-ack`` rows.

        One peer ack can retire a whole send window of local updates;
        methods with per-update obligations override this to release
        them all in one step, waking the queries parked on the keys
        they free.
        """
        return list(map(_tid_of, items))

    def hold_counters(self, mset: MSet) -> None:
        """Re-assert the divergence obligation of a still-unacked local
        update whose apply is already inside a restored checkpoint (so
        replay could not re-raise it).  No-op for methods without
        lock-counter state."""

    def release_counters(
        self, items: Sequence[Tuple[Any, Sequence[str]]]
    ) -> None:
        """No-op for methods without lock-counter state."""

    # -- query path ----------------------------------------------------------

    def read_now(
        self, keys: Sequence[str], spec: EpsilonSpec
    ) -> Optional[QueryOutcome]:
        """Answer a query in this step — or return None, having changed
        nothing, when it must go through :meth:`query`: it reads more
        than one key (its reads interleave with applies), or its
        sources cannot be charged now.  The first step of every
        ``query``."""
        raise NotImplementedError

    async def query(
        self,
        keys: Sequence[str],
        spec: EpsilonSpec,
        timeout: float = 30.0,
    ) -> QueryOutcome:
        raise NotImplementedError

    def _timed_out(self) -> QueryTimeout:
        return QueryTimeout(
            "query at %s blocked beyond its deadline" % self.site
        )

    async def _park(
        self, keys: Sequence[str], strict: bool, deadline: float
    ) -> None:
        """Wait until a step that may free one of ``keys`` wakes this
        query (:meth:`_wake`): one future, filed under every key, and
        the deadline its only timer.  A strict query can also be failed
        by :meth:`fail_parked_strict`."""
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        for key in keys:
            self._parked.setdefault(key, set()).add(waiter)
        if strict:
            self._parked_strict.add(waiter)
        timer = loop.call_later(
            deadline - self.clock(), self._expire, waiter
        )
        try:
            await waiter
        finally:
            timer.cancel()
            self._parked_strict.discard(waiter)
            for key in keys:
                waiters = self._parked.get(key)
                if waiters is not None:
                    waiters.discard(waiter)
                    if not waiters:
                        del self._parked[key]

    def _expire(self, waiter: "asyncio.Future[None]") -> None:
        if not waiter.done():
            waiter.set_exception(self._timed_out())

    def _wake(self, keys: Sequence[str]) -> None:
        """Wake every query parked on one of ``keys`` to re-check."""
        parked = self._parked
        if parked:
            for key in keys:
                for waiter in parked.get(key, ()):
                    if not waiter.done():
                        waiter.set_result(None)

    def fail_parked_strict(self, error: Callable[[], Exception]) -> None:
        """Fail every parked strict (epsilon = 0) query with its own
        ``error()``: the server's answer once full replica agreement is
        off the table."""
        for waiter in self._parked_strict:
            if not waiter.done():
                waiter.set_exception(error())

    # -- checkpoint / restore ------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """A JSON-safe image of this engine's applied state.

        Captured in one step: store values with the write stamps of
        the keys that have one (the RITU multiversion floor — a
        restored site answers version queries exactly where the
        pre-snapshot site did), as one copy of the store's dicts
        (:meth:`~repro.storage.kv.KeyValueStore.image`), the
        applied-MSet count, the drift of every update a query could
        still be charged for, and method-specific apply state via
        :meth:`_method_checkpoint`.

        Deliberately *not* captured: COMMU lock-counter holders (they
        mirror the outbox pending set and are rebuilt from it at
        recovery — see ``Recovery.recover``) and pending
        read-modify-report results (their client connection did not
        survive the crash, so nobody can claim them).
        """
        values, stamps = self.store.image()
        state: Dict[str, Any] = {
            "method": self.method_name,
            "applied_count": self.applied_count,
            "store": {"values": values, "stamps": stamps},
            "drift": dict(self._drift),
        }
        state.update(self._method_checkpoint())
        return state

    def _method_checkpoint(self) -> Dict[str, Any]:
        """Method-specific additions to the checkpoint image."""
        return {}

    def restore(self, state: Dict[str, Any]) -> None:
        """Install a checkpoint image, replacing all applied state.

        The caller (server recovery or snapshot install) is
        responsible for aligning the durable-queue frontiers with the
        image's — the engine itself only swaps its in-memory state.
        """
        if state.get("method") != self.method_name:
            raise ValueError(
                "checkpoint is for method %r, engine runs %r"
                % (state.get("method"), self.method_name)
            )
        store = state.get("store", {})
        stamps = store.get("stamps", {})
        self.store.restore(
            StoreSnapshot(
                values=dict(store.get("values", {})),
                stamps={
                    key: (tuple(stamp) if stamp is not None else None)
                    for key, stamp in stamps.items()
                },
            )
        )
        self.applied_count = int(state.get("applied_count", 0))
        self._drift, self._pins = {}, {}
        self.read_results.clear()
        self.last_applied_at = self.clock()
        self._method_restore(state)
        # Every parked query re-checks against the installed state.
        self._wake(list(self._parked))

    def _method_restore(self, state: Dict[str, Any]) -> None:
        """Method-specific state install.  Pins
        (:meth:`_restore_pin`) the tids the installed state can still
        charge; the rest of the image's drift table is not loaded."""

    def _restore_pin(self, state: Dict[str, Any], tid: Any) -> None:
        self._drift[tid] = state.get("drift", {}).get(tid)
        self._pin(tid)

    # -- the order questions, for an engine no order fences -----------------

    def max_order_seen(self) -> int:
        return 0

    def adopt_epoch(self, epoch: int, base: int) -> None:
        pass

    def order_admissible(self, order: Tuple[int, int]) -> bool:
        return True

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Current store contents (convergence assertions)."""
        return self.store.as_dict()

    def quiescent(self) -> bool:
        """No method-level work outstanding at this site."""
        return True

    def stats(self) -> Dict[str, Any]:
        age = None
        if self.last_applied_at is not None:
            age = round(self.clock() - self.last_applied_at, 4)
        return {
            "method": self.method_name,
            "applied": self.applied_count,
            "apply_staleness": age,
            "quiescent": self.quiescent(),
        }


class CommuLiveEngine(LiveEngine):
    """COMMU (§3.2): commutative operations.

    MSets apply in arrival order (the operation-semantics restriction
    makes any order equivalent); divergence bounding is the paper's
    lock-counters (:class:`LockCounterSiteState`): the origin holds
    every written object's counter from local commit until every peer
    holds the MSet (:meth:`fully_acked_many`), so origin-site queries
    observe cluster-wide in-flight inconsistency.  A query read charges
    one unit per update holding the key's counter or applied to it
    since the query began; a blocked query restarts
    (:meth:`restart_query`).
    """

    method_name = "COMMU"

    def __init__(self, site, clock=time.monotonic) -> None:
        super().__init__(site, clock)
        self.state = LockCounterSiteState()
        #: start of each query inside :meth:`query`, oldest first (a
        #: re-serialised query re-enters at the back).
        self._query_starts: Dict[Any, float] = {}

    def validate_update(self, ops: Sequence[Operation]) -> None:
        check_ops_commutative(ops)

    def decode_remote(
        self, src: str, first: int, payloads: Sequence[Any]
    ) -> List[Any]:
        """A plain update's payload (an array) is applied as ``(tid,
        ops)``, ``ops`` its checked wire arrays themselves: under COMMU
        a remote copy only has to change the store, so no :class:`MSet`
        and no operation object is built for it.  Any other entry is
        decoded into its :class:`MSet`.  The arrays are checked in one
        pass over the batch."""
        return decode_payloads(src, first, payloads, pairs=True)

    plain_form = True

    def _accept_msets(self, entries: Sequence[Any], local: bool) -> List[Any]:
        self._apply_entries(entries, local)
        return list(entries)

    def _accept_one(self, mset: MSet, local: bool) -> List[MSet]:
        self._apply_entries((mset,), local)
        return [mset]

    def _apply_entries(self, entries: Sequence[Any], local: bool) -> None:
        """Apply delivered entries in one store pass, in order — under the
        operation-semantics restriction any order is equivalent.  An
        entry is an :class:`MSet`, a local ``(tid, ops, keys)`` triple
        (:attr:`plain_form`) or a remote ``(tid, ops)`` pair
        (:meth:`decode_remote`), ``ops`` checked wire arrays.

        One clock read stamps the batch.  A local entry raises its
        counters as it applies (:meth:`_held_ops`); a remote copy raises
        none.  Should an operation fail, the entries before its own
        count as applied and the error propagates: the store and
        ``applied_count`` end as one apply per entry leaves them.
        """
        site = self.site
        rest = iter(entries)
        if local:
            ops = self._held_ops(rest)
        elif {*map(type, entries)} == _PAIRS:
            # A run of remote pairs only (the common batch): no
            # Python-level step per entry.
            ops = map(_ops_of, rest)
        else:
            # The guard spares the common MSet (no info) a call.
            ops = (
                entry[1] if type(entry) is tuple
                else self._reads_then_ops(entry)
                if entry.info and entry.origin == site
                else entry.ops
                for entry in rest
            )
        try:
            # chain pulls an entry's operations only once the previous
            # entry's are applied: its apply instant, for its reads.
            self.store.apply_many(chain.from_iterable(ops))
        except BaseException:
            # ``rest`` stopped just past the entry whose operation failed.
            failed = len(entries) - 1 - sum(1 for _ in rest)
            self._applied(entries[:failed], local)
            raise
        self._applied(entries, local)

    def _held_ops(self, entries: Any) -> Any:
        """Each local entry's operations, at its apply instant, once its
        keys' counters are raised: held until every peer durably acks
        it (:meth:`fully_acked_many`).  Its drift is noted while it
        holds one, or while a query reads."""
        state, reading = self.state, self._query_starts
        for entry in entries:
            if type(entry) is tuple:
                tid, ops, keys = entry
            else:
                tid, keys = entry.tid, entry.keys
                ops = self._reads_then_ops(entry)
            held = state.raise_counters(tid, keys)
            if held or reading:
                self._note_drift(tid, ops, held + bool(reading))
            yield ops

    def _applied(self, entries: Sequence[Any], local: bool) -> None:
        """Count entries whose operations are all in the store, at one
        instant.  While a query reads, each enters the apply history —
        one that starts later cannot see this apply as a mixed
        observation — and a remote one is charged its drift (a local
        one was, as it raised its counters)."""
        if not entries:
            return
        self.applied_count += len(entries)
        now = self.last_applied_at = self.clock()
        if self._query_starts:
            for entry in entries:
                if type(entry) is not tuple:
                    entry = entry.tid, entry.ops, entry.keys
                elif not local:  # a remote pair's keys, as MSet.keys
                    entry = (*entry, tuple({op[1]: None for op in entry[1]}))
                tid, ops, keys = entry
                if not local:
                    self._note_drift(tid, ops)
                self.state.note_applied(now, tid, keys)

    def _horizon(self) -> float:
        """Start of the oldest query still reading; now when none is."""
        for start in self._query_starts.values():
            return start
        return self.clock()

    def _forget_unreachable(self) -> None:
        self._unpin(*self.state.prune_through(self._horizon()))

    def history_entries(self) -> int:
        return sum(map(len, self.state.applied.values()))

    def fully_acked_many(
        self, items: Sequence[Tuple[Any, Sequence[str]]]
    ) -> List[Any]:
        tids = list(map(_tid_of, items))
        self._release(items, tids)
        return tids

    def release_counters(
        self, items: Sequence[Tuple[Any, Sequence[str]]]
    ) -> None:
        self._release(items, None)

    def _release(
        self, items: Sequence[Tuple[Any, Sequence[str]]], tids: Any
    ) -> None:
        """Release the lock-counters these (tid, keys) pairs hold here,
        waking the queries parked on the keys they free: one unpin
        loop, and one look for parked queries, per call.  ``tids``:
        the items' tids, when the caller built them — unpinned as they
        are once every item held a counter."""
        released = self.state.release_many(items)
        if released:
            if tids is None or len(released) != len(items):
                tids = map(_tid_of, released)
            self._unpin(*tids)
            if self._parked:
                self._wake([key for _, keys in released for key in keys])

    def hold_counters(self, mset: MSet) -> None:
        if self.state.raise_counters(mset.tid, mset.keys):
            self._note_drift(mset.tid, mset.ops)

    def _query_sources(self, key: str, start: float) -> Set[Any]:
        """Inconsistency sources for one key read: in-flight updates
        holding the key's counter plus updates applied since the query
        began (mixed observations).  COMPE extends this with
        potentially-compensated (undecided) updates."""
        return self.state.holders_of(key) | self.state.applied_since(
            key, start
        )

    def _chargeable(self, keys: Sequence[str], spec: EpsilonSpec) -> bool:
        """Could a query starting now be charged for all of ``keys``?  A
        fresh start has no mixed observations, so only the steps that
        wake parked queries — a release, a decision, a restore — turn
        this from False to True."""
        now = self.clock()
        sources: Set[Any] = set()
        for key in keys:
            sources |= self._query_sources(key, now)
        return _QueryBudget(spec).try_charge(sources, self._drift.get)

    def read_now(
        self, keys: Sequence[str], spec: EpsilonSpec
    ) -> Optional[QueryOutcome]:
        if len(keys) != 1:
            return None
        key = keys[0]
        budget = _QueryBudget(spec)
        sources = self._query_sources(key, self.clock())
        if not budget.try_charge(sources, self._drift.get):
            return None
        return budget.outcome({key: self.store.get(key, 0)})

    def open_query(
        self, spec: EpsilonSpec, keys: Sequence[str]
    ) -> _QueryBudget:
        """Start a query of ``keys`` that reads one key per step
        (:meth:`read_key`).  Until :meth:`close_query`, history applied
        after its start is kept for it."""
        budget = _QueryBudget(spec, keys)
        self._query_starts[budget] = self.clock()
        return budget

    def read_key(self, budget: _QueryBudget, key: str) -> Tuple[bool, Any]:
        """One read of an open query: charge ``budget`` for ``key``'s
        sources since the query began and read the key — or return
        ``(False, None)``, having changed nothing, when the budget
        cannot take them."""
        sources = self._query_sources(key, self._query_starts[budget])
        if budget.try_charge(sources, self._drift.get):
            return True, self.store.get(key, 0)
        return False, None

    def restart_query(self, budget: _QueryBudget) -> None:
        """(Re)start an open query now, dropping its charges: COMMU's
        blocked query is re-serialised after the conflicting updates.
        The simulator's host also starts a query this way, at its first
        read."""
        budget.reset()
        self._query_starts.pop(budget, None)
        self._query_starts[budget] = self.clock()

    def close_query(self, budget: _QueryBudget) -> None:
        self._query_starts.pop(budget, None)
        self._forget_unreachable()

    async def query(
        self,
        keys: Sequence[str],
        spec: EpsilonSpec,
        timeout: float = 30.0,
    ) -> QueryOutcome:
        answered = self.read_now(keys, spec)
        if answered is not None:
            return answered
        keys = list(keys)
        values: Dict[str, Any] = {}
        waits = 0
        deadline = self.clock() + timeout
        budget = self.open_query(spec, keys)
        index = 0
        try:
            while index < len(keys):
                key = keys[index]
                read, value = self.read_key(budget, key)
                if read:
                    values[key] = value
                    index += 1
                    if index < len(keys):
                        # Yield between reads so update applies
                        # genuinely interleave with the query — the
                        # inconsistency ESR bounds is exactly this
                        # interleaving.
                        await asyncio.sleep(0)
                    continue
                # Restart at once when a fresh start can be charged
                # (only mixed observations blocked it), else parked on
                # the keys, keeping no history, until a step that
                # frees them.
                waits += 1
                if self.clock() >= deadline:
                    raise self._timed_out()
                index = 0
                values.clear()
                del self._query_starts[budget]
                while not self._chargeable(keys, spec):
                    await self._park(keys, spec.is_strict, deadline)
                self.restart_query(budget)
        finally:
            # No await between here and return: atomic on the loop.
            self.close_query(budget)
        return budget.outcome(values, waits)

    def quiescent(self) -> bool:
        return not self.state.holders

    def _method_restore(self, state: Dict[str, Any]) -> None:
        # Lock-counter holders mirror the outbox pending set, so the
        # server re-raises them from the surviving outbox after the
        # install; the applied-history table (mixed-observation
        # detection) is keyed by wall-clock apply instants that do not
        # survive a restart — pre-snapshot updates are stable by
        # construction, so dropping them can only over-admit nothing.
        self.state = LockCounterSiteState()

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["held_keys"] = len(self.state.holders)
        return out


class RituLiveEngine(CommuLiveEngine):
    """RITU (§3.3): timestamped single-version updates.

    Updates must be *read-independent* (blind writes); the origin
    stamps every write with its Lamport clock and the store applies
    them under the **Thomas write rule** (an older stamp never
    overwrites a newer version), so any arrival order converges.
    Divergence bounding reuses the COMMU lock-counter accounting:
    an in-flight stamped write holds its keys' counters at the origin
    until every peer durably acked it.

    Crash-safety: the Lamport counter is part of the method
    checkpoint.  Recovery replays the log tail through
    :meth:`_accept_one`, which re-observes every stamp it sees, so
    a replica restored from a *compacted* log (where replay cannot
    re-derive the counter) still never re-issues a stale stamp — a
    stale stamp would be silently dropped by the Thomas rule
    everywhere, losing an acked update.
    """

    method_name = "RITU"

    def __init__(self, site, clock=time.monotonic) -> None:
        super().__init__(site, clock)
        #: origin Lamport clock; ties broken by the site's name, so
        #: stamps totally order whoever joins later.
        self._lamport = 0
        self._stamped_keys: Set[str] = set()

    _versions_gauge = _UNBOUND

    def bind_observability(self, registry: Any, trace: Any) -> None:
        super().bind_observability(registry, trace)
        self._versions_gauge = registry.gauge(
            "ritu_versions_gauge",
            "object versions held by the RITU store "
            "(one per key single-version; all versions multiversion)",
        )

    def validate_update(self, ops: Sequence[Operation]) -> None:
        check_ops_read_independent(ops)

    def make_mset(
        self,
        tid: Any,
        ops: Sequence[Operation],
        order: Optional[Tuple[int, int]] = None,
        info: Tuple[Tuple[str, Any], ...] = (),
    ) -> MSet:
        self._lamport += 1
        stamp = (self._lamport, self.site)
        stamped = [TimestampedWriteOp(op.key, op.value, stamp) for op in ops]
        return super().make_mset(tid, stamped, order=order, info=info)

    def _observe_stamps(self, mset: MSet) -> None:
        """Advance the Lamport clock past every observed stamp (local
        and remote, live delivery and recovery replay alike)."""
        for op in mset.ops:
            if (
                isinstance(op, TimestampedWriteOp)
                and op.timestamp[0] > self._lamport
            ):
                self._lamport = int(op.timestamp[0])

    # One MSet at a time: each observes its stamps before it applies,
    # and its origin stamps it (make_mset).
    decode_remote, plain_form = LiveEngine.decode_remote, False
    _accept_msets = LiveEngine._accept_msets

    def _accept_one(self, mset: MSet, local: bool) -> List[MSet]:
        self._observe_stamps(mset)
        applied = super()._accept_one(mset, local)
        self._stamped_keys.update(mset.keys)
        self._versions_gauge.set(len(self._stamped_keys))
        return applied

    def _method_checkpoint(self) -> Dict[str, Any]:
        return {"ritu": {"lamport": self._lamport}}

    def _method_restore(self, state: Dict[str, Any]) -> None:
        super()._method_restore(state)
        self._lamport = int(state.get("ritu", {}).get("lamport", 0))
        self._stamped_keys = set(state.get("store", {}).get("values", {}))
        self._versions_gauge.set(len(self._stamped_keys))

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["lamport"] = self._lamport
        return out


class RituMvLiveEngine(RituLiveEngine):
    """RITU's multiversion variant: versioned store + VTNC frontier.

    The paper's Modular Synchronization Method: every update carries a
    *global transaction number* — live, the token from the cluster's
    order server, the same machinery ORDUP's sequencer and failover
    use — and installs immutable versions at that number.  The VTNC
    (visible transaction number counter) advances along the contiguous
    prefix of applied numbers; versions at or below it are stable and
    read for free, newer (unstable) versions charge the query's
    counter one unit per writer, and an exhausted budget degrades the
    read to the newest *stable* version instead of blocking.

    Unlike ORDUP there is **no holdback**: version installation
    commutes, so MSets apply on arrival whatever their number, and
    only *visibility* waits for the contiguous frontier.
    """

    method_name = "RITU-MV"
    needs_order = True

    def __init__(self, site, clock=time.monotonic) -> None:
        super().__init__(site, clock)
        self.mvstore = MultiVersionStore()
        #: transaction number -> writer tid, applied above the VTNC.
        self._applied_numbers: Dict[int, Any] = {}
        #: writers above the VTNC whose versions every replica holds
        #: (:meth:`fully_acked_many`), until the VTNC passes them.
        self._everywhere: Set[Any] = set()
        self._version_count = 0
        #: reads served from a stable version because the budget was
        #: exhausted (the degrade-instead-of-block path).
        self.degraded_reads = 0

    @property
    def vtnc(self) -> int:
        return self.mvstore.vtnc

    def make_mset(
        self,
        tid: Any,
        ops: Sequence[Operation],
        order: Optional[Tuple[int, int]] = None,
        info: Tuple[Tuple[str, Any], ...] = (),
    ) -> MSet:
        if order is None:
            raise ValueError("RITU-MV updates need a global order token")
        mset = super().make_mset(tid, ops, order=order, info=info)
        # The order token's sequence *is* the global transaction number.
        return replace(mset, txn_number=int(order[0]))

    def _note_number(self, mset: MSet, txn: int) -> None:
        """Advance the VTNC along the contiguous applied prefix."""
        if txn <= self.mvstore.vtnc:
            return
        # Chargeable (its versions unstable) until the VTNC passes it.
        self._note_drift(mset.tid, mset.ops)
        self._applied_numbers[txn] = mset.tid
        frontier = self.mvstore.vtnc
        while frontier + 1 in self._applied_numbers:
            frontier += 1
            tid = self._applied_numbers.pop(frontier)
            self._everywhere.discard(tid)
            self._unpin(tid)
        self.mvstore.advance_vtnc(frontier)

    def hold_counters(self, mset: MSet) -> None:
        """No-op: a version read never looks at lock-counters."""

    def fully_acked_many(
        self, items: Sequence[Tuple[Any, Sequence[str]]]
    ) -> List[Any]:
        tids = super().fully_acked_many(items)
        # Only a writer above the VTNC is still pinned here
        # (:meth:`_note_number`); one at or below it is stable anyway.
        pins = self._pins
        self._everywhere.update(tid for tid in tids if tid in pins)
        return tids

    def _accept_one(self, mset: MSet, local: bool) -> List[MSet]:
        assert mset.txn_number is not None, (
            "RITU-MV MSets carry a transaction number"
        )
        txn = int(mset.txn_number)
        self._observe_stamps(mset)
        for op in mset.ops:
            self.mvstore.install(op.key, op.value, txn, writer=mset.tid)
            self._version_count += 1
        # Mirror into the flat store (Thomas rule) so convergence
        # checks, snapshots and the `values` verb keep working
        # unchanged alongside the version history.
        self._apply_ops(mset)
        self._note_number(mset, txn)
        self._versions_gauge.set(self._version_count)
        return [mset]

    def _read_version(self, key: str, budget: _QueryBudget) -> Any:
        try:
            latest = self.mvstore.read_latest(key)
        except NoVisibleVersion:
            return self.store.get(key, 0)
        if latest.txn_number <= self.mvstore.vtnc:
            return latest.value  # stable (VTNC-visible): free
        if latest.writer in self._everywhere:
            # Above the VTNC only because a lower number is late here,
            # while every replica holds this version: read alone it is
            # serializable and imports nothing.  Beside another key it
            # could pair this writer with a key read without the late
            # one ordered before it, so such a query reads the stable
            # snapshot, free as well.
            if len(budget.keys) == 1:
                return latest.value
        elif budget.try_charge({latest.writer}, self._drift.get):
            return latest.value
        else:
            # Budget exhausted: degrade to the newest *stable* version
            # instead of blocking (RITU queries never wait — stability
            # only moves forward).
            self.degraded_reads += 1
        try:
            return self.mvstore.read_visible(key).value
        except NoVisibleVersion:
            return 0

    def read_now(
        self, keys: Sequence[str], spec: EpsilonSpec
    ) -> Optional[QueryOutcome]:
        if len(keys) != 1:
            return None
        budget = _QueryBudget(spec, keys)
        return budget.outcome({keys[0]: self._read_version(keys[0], budget)})

    def read_key(self, budget: _QueryBudget, key: str) -> Tuple[bool, Any]:
        # Never blocks: an exhausted budget degrades the read instead.
        return True, self._read_version(key, budget)

    def max_order_seen(self) -> int:
        """Highest transaction number known here (failover resume)."""
        seen = self.mvstore.vtnc
        if self._applied_numbers:
            seen = max(seen, max(self._applied_numbers))
        return seen

    def _method_checkpoint(self) -> Dict[str, Any]:
        state = super()._method_checkpoint()
        state["ritu_mv"] = {
            "mv": self.mvstore.to_state(),
            "applied_numbers": sorted(self._applied_numbers),
            "everywhere": list(self._everywhere),
            "version_count": self._version_count,
        }
        return state

    def _method_restore(self, state: Dict[str, Any]) -> None:
        super()._method_restore(state)
        mv = state.get("ritu_mv", {})
        self.mvstore = MultiVersionStore.from_state(mv.get("mv", {}))
        writers = {
            version.txn_number: version.writer
            for key in self.mvstore.keys()
            for version in self.mvstore.unstable_versions(key)
        }
        self._applied_numbers = {
            int(n): writers.get(int(n))
            for n in mv.get("applied_numbers", ())
        }
        for tid in self._applied_numbers.values():
            if tid is not None:  # None: it wrote nothing to charge
                self._restore_pin(state, tid)
        self._everywhere = set(mv.get("everywhere", ()))
        self._version_count = int(mv.get("version_count", 0))
        self._versions_gauge.set(self._version_count)

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["vtnc"] = self.mvstore.vtnc
        out["versions"] = self._version_count
        out["degraded_reads"] = self.degraded_reads
        return out


class OrdupLiveEngine(LiveEngine):
    """ORDUP (§3.1): ordered updates.

    Every update carries a gap-free sequence token — live, from the
    cluster's order server; in the simulator, from the host's order
    server or its Lamport delivery layer — with the leadership epoch
    that granted it as ``order[1]``.  The engine feeds delivered MSets
    through :class:`OrderedApplyBuffer` and applies them in token
    order.  Free queries charge their counter for writers applied
    beyond the query's start frontier; an exhausted counter converts
    the query to ordered mode — an atomic prefix-consistent snapshot
    read.
    """

    method_name = "ORDUP"
    needs_order = True

    def __init__(self, site, clock=time.monotonic) -> None:
        super().__init__(site, clock)
        self.buffer = OrderedApplyBuffer()
        #: key -> (order token, tid) of the last applied writer.
        self.last_writer: Dict[str, Tuple[Tuple[int, int], Any]] = {}
        #: highest order token applied, gap-free.
        self.frontier: Tuple[int, int] = (0, 0)
        #: highest leadership epoch this engine has adopted; tokens
        #: from older epochs are fenced unless they predate every
        #: newer epoch's handover base.
        self._current_epoch = 0
        #: epoch -> base sequence the epoch's leader resumed from.
        self._epoch_bases: Dict[int, int] = {0: 0}
        #: stale-epoch tokens refused (observability).
        self.fenced_count = 0

    def adopt_epoch(self, epoch: int, base: int) -> None:
        """Record a leadership handover: ``epoch``'s leader resumed at ``base``.

        A plain method like ``accept``: the server adopts an epoch in
        one step, between applies.  Epochs may arrive in any order — a
        restore merges the election record's table into the
        checkpoint's — and an epoch already recorded keeps its base, so
        a merge never loosens the fence.  Purges held-back MSets that the
        handover fences:
        entries above ``base`` carrying an older epoch were granted by
        a deposed leader after the handover point and can never become
        applicable.
        """
        epoch = int(epoch)
        if epoch in self._epoch_bases:
            return
        self._current_epoch = max(self._current_epoch, epoch)
        self._epoch_bases[epoch] = int(base)
        stale = [
            seqno
            for seqno, held in self.buffer._holdback.items()
            if not self._epoch_admits(held.order[1], seqno)
        ]
        for seqno in stale:
            del self.buffer._holdback[seqno]
            self.fenced_count += 1

    def _epoch_admits(self, epoch: int, seq: int) -> bool:
        """Is a ``(seq, epoch)`` token admissible under the fence?

        Current/newer epochs always admit (a newer epoch implies a
        majority elected it; adoption follows via gossip).  An older
        epoch admits only tokens at or below the base of every adopted
        newer epoch — i.e. grants that predate the handover and are
        merely arriving late.
        """
        if epoch >= self._current_epoch:
            return True
        floor = min(
            b for e, b in self._epoch_bases.items() if e > epoch
        )
        return seq <= floor

    def order_admissible(self, order: Tuple[int, int]) -> bool:
        return self._epoch_admits(int(order[1]), int(order[0]))

    def max_order_seen(self) -> int:
        """Highest sequence number durably known here, held-back included.

        A new leader resumes from the max of this across the electing
        majority, so every grant any replica has seen is covered.
        """
        seen = self.frontier[0]
        if self.buffer._holdback:
            seen = max(seen, max(self.buffer._holdback))
        return seen

    def _accept_one(self, mset: MSet, local: bool) -> List[MSet]:
        assert mset.order is not None, "ORDUP MSets carry an order token"
        if not self._epoch_admits(mset.order[1], mset.order[0]):
            # Fenced: granted by a deposed leader past the handover
            # point.  Return no applies; the channel still acks so the
            # sender's queue drains (the update was never client-acked).
            self.fenced_count += 1
            return []
        applied: List[MSet] = []
        for ready in self.buffer.offer(mset.order[0], mset):
            self._apply_ops(ready)
            self.frontier = max(self.frontier, ready.order)
            if ready.keys:
                # Chargeable while it is some key's last writer.
                self._note_drift(ready.tid, ready.ops, len(ready.keys))
            for key in ready.keys:
                displaced = self.last_writer.get(key)
                self.last_writer[key] = (ready.order, ready.tid)
                if displaced is not None:
                    self._unpin(displaced[1])
            applied.append(ready)
        return applied

    def read_ordered(self, keys: Sequence[str]) -> Dict[str, Any]:
        """Ordered mode: one atomic read of ``keys``, a prefix of the
        global update order and hence serializable."""
        return {key: self.store.get(key, 0) for key in keys}

    def read_now(
        self, keys: Sequence[str], spec: EpsilonSpec
    ) -> Optional[QueryOutcome]:
        # A strict query runs in ordered mode; a free one-key read
        # cannot see a writer beyond the frontier it starts at.
        if not spec.is_strict and len(keys) != 1:
            return None
        return QueryOutcome(self.read_ordered(keys))

    def open_query(
        self, spec: EpsilonSpec, keys: Sequence[str]
    ) -> _QueryBudget:
        """Start a free query of ``keys`` at the applied frontier."""
        budget = _QueryBudget(spec, keys)
        budget.frontier = self.frontier
        return budget

    def read_key(self, budget: _QueryBudget, key: str) -> Tuple[bool, Any]:
        """One read of an open query, charged for ``key``'s writer if it
        is beyond the query's start frontier; ``(False, None)``, having
        changed nothing, when the budget cannot take it."""
        writer = self.last_writer.get(key)
        sources: Set[Any] = set()
        if writer is not None and writer[0] > budget.frontier:
            sources = {writer[1]}
        if budget.try_charge(sources, self._drift.get):
            return True, self.store.get(key, 0)
        return False, None

    def restart_query(self, budget: _QueryBudget) -> None:
        """(Re)start an open query now, dropping its charges."""
        budget.reset()
        budget.frontier = self.frontier

    def close_query(self, budget: _QueryBudget) -> None:
        """Nothing to forget: the last-writer table is the history."""

    async def query(
        self,
        keys: Sequence[str],
        spec: EpsilonSpec,
        timeout: float = 30.0,
    ) -> QueryOutcome:
        answered = self.read_now(keys, spec)
        if answered is not None:
            return answered
        budget = self.open_query(spec, keys)
        values: Dict[str, Any] = {}
        for index, key in enumerate(keys):
            if index:
                await asyncio.sleep(0)  # let applies interleave
            read, value = self.read_key(budget, key)
            if not read:
                # Counter exhausted: convert to ordered mode.
                return budget.outcome(self.read_ordered(keys), waits=1)
            values[key] = value
        return budget.outcome(values)

    def quiescent(self) -> bool:
        return not self.buffer.held

    def history_entries(self) -> int:
        return len(self.last_writer)

    def _method_checkpoint(self) -> Dict[str, Any]:
        # The apply-buffer position *is* ORDUP's recovery state: the
        # next order token the site may apply, the gap-free frontier,
        # the last writer per key (free-query accounting), and any
        # held-back MSets waiting for an earlier token.
        return {
            "ordup": {
                "expected": self.buffer.expected,
                "frontier": list(self.frontier),
                "last_writer": {
                    key: [list(order), tid]
                    for key, (order, tid) in self.last_writer.items()
                },
                "held": [
                    [seqno, encode_mset(mset)]
                    for seqno, mset in sorted(
                        self.buffer._holdback.items()
                    )
                ],
                "epoch": self._current_epoch,
                "bases": {
                    str(e): b for e, b in self._epoch_bases.items()
                },
            }
        }

    def _method_restore(self, state: Dict[str, Any]) -> None:
        ordup = state.get("ordup", {})
        self.buffer = OrderedApplyBuffer(
            expected=int(ordup.get("expected", 1))
        )
        for seqno, encoded in ordup.get("held", ()):
            self.buffer._holdback[int(seqno)] = decode_mset(encoded)
        frontier = ordup.get("frontier", (0, 0))
        self.frontier = (int(frontier[0]), int(frontier[1]))
        self.last_writer = {
            key: ((int(order[0]), int(order[1])), tid)
            for key, (order, tid) in ordup.get(
                "last_writer", {}
            ).items()
        }
        for _, tid in self.last_writer.values():
            self._restore_pin(state, tid)
        self._current_epoch = int(ordup.get("epoch", 0))
        self._epoch_bases = {
            int(e): int(b)
            for e, b in ordup.get("bases", {"0": 0}).items()
        }
        self._epoch_bases.setdefault(0, 0)

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["frontier"] = list(self.frontier)
        out["held_back"] = self.buffer.held
        out["epoch"] = self._current_epoch
        out["fenced"] = self.fenced_count
        return out


class CompeLiveEngine(CommuLiveEngine):
    """COMPE (§4): optimistic apply, backward recovery.

    Every update applies (and propagates) *before* its global decision,
    through the engine's :class:`~repro.storage.oplog.OperationLog`,
    which records each operation with the value it overwrote.  A COMMIT
    decision retires the obligation; an ABORT decision compensates and
    the update is reported ``COMPENSATED``: directly — its inverses —
    when every operation logged after it commutes with them, otherwise
    by §4.1's rollback and replay (undo the suffix, drop the update,
    replay the rest: the paper's ``Inc``/``Mul`` example).  After each
    decision the log is cut below the oldest record of an update still
    undecided here, the furthest a rollback can reach, so at quiescence
    it is empty.  A saga's steps stay undecided until the saga is
    decided; aborting it compensates them newest first.

    The engine keeps no file: the durable record is the update itself
    (in the replication log or an inbox), and the log's records travel
    in the checkpoint (``compe.log``).  Recovery — checkpoint, then the
    replayed log suffix — rebuilds the same tables.  The live server
    admits only commuting operations with prior-value-independent
    inverses (:meth:`validate_update`), so there direct compensation is
    exact in any interleaving; the simulator's host admits any
    operation with an inverse, under ORDUP's order for mixed logs.

    Queries charge one unit per *undecided* update observed (its
    effects may yet be compensated away), on top of COMMU's.
    """

    method_name = "COMPE"
    #: counters carried by the checkpoint under their own names.
    _COUNTERS = (
        "compensation_count",
        "operations_undone",
        "rollback_replays",
        "operations_replayed",
        "log_records_reclaimed",
    )

    def __init__(self, site, clock=time.monotonic) -> None:
        super().__init__(site, clock)
        #: optimistically applied updates awaiting their decision.
        self._undecided: Dict[Any, Tuple[str, ...]] = {}
        self._undecided_by_key: Dict[str, Set[Any]] = {}
        #: tid -> "commit" | "abort"; the first decision is final.
        self._decided: Dict[Any, str] = {}
        #: tids undone by backward recovery (COMPENSATED reporting).
        self._compensated: Set[Any] = set()
        #: saga id -> member tids in submission order (compensated in
        #: reverse).
        self._sagas: Dict[str, List[Any]] = {}
        self.compensation_count = 0
        self.operations_undone = 0
        #: compensations that rolled back and replayed the log suffix.
        self.rollback_replays = 0
        self.operations_replayed = 0
        self.log_records_reclaimed = 0

    # Every update applies through the log: a store gets a fresh log.
    @property
    def store(self) -> KeyValueStore:
        return self.log.store

    @store.setter
    def store(self, store: KeyValueStore) -> None:
        self.log = OperationLog(store)

    _compensations_counter = _undecided_gauge = _UNBOUND

    def bind_observability(self, registry: Any, trace: Any) -> None:
        super().bind_observability(registry, trace)
        self._compensations_counter = registry.counter(
            "compensations_total",
            "updates undone by COMPE backward recovery",
        )
        self._undecided_gauge = registry.gauge(
            "compe_undecided_updates",
            "optimistically applied updates awaiting a decision",
        )

    def validate_update(self, ops: Sequence[Operation]) -> None:
        # COMMU's restriction: commuting writes, no reads.
        super().validate_update(ops)
        for op in ops:
            # Probe with two different priors: an inverse that depends
            # on the overwritten value (WriteOp, multiply-by-zero)
            # would compensate to *different* values at different
            # replicas, so direct compensation would diverge.
            if (
                op.inverse(prior_value=None) is None
                or op.inverse(prior_value=0) != op.inverse(prior_value=1)
            ):
                raise ValueError(
                    "operation %r has no replica-independent "
                    "compensation; COMPE over TCP admits only "
                    "prior-value-independent inverses" % (op,)
                )

    def saga_members(self, saga: str) -> List[Any]:
        """Member tids of one saga, in submission order."""
        return list(self._sagas.get(saga, ()))

    def decision_of(self, tid: Any) -> Optional[str]:
        return self._decided.get(tid)

    def compensated_tids(self) -> List[Any]:
        return sorted(self._compensated)

    # One MSet at a time: a decision may compensate what came before.
    decode_remote, plain_form = LiveEngine.decode_remote, False
    _accept_msets = LiveEngine._accept_msets

    def _accept_one(self, mset: MSet, local: bool) -> List[MSet]:
        if mset.kind == MSetKind.UPDATE:
            return self._accept_update(mset, local)
        if mset.kind in (MSetKind.COMMIT, MSetKind.ABORT):
            return self._accept_decision(mset, local)
        return super()._accept_one(mset, local)

    def _apply_entries(self, msets: Sequence[MSet], local: bool) -> None:
        # One MSet (_accept_msets), held first when local, each of its
        # operations through the log.
        (mset,) = msets
        (ops,) = self._held_ops(msets) if local else (mset.ops,)
        execute, tid = self.log.execute, mset.tid
        for op in ops:
            execute(tid, op)
        self._applied(msets, local)

    def _accept_update(self, mset: MSet, local: bool) -> List[MSet]:
        applied = super()._accept_one(mset, local)
        tid = mset.tid
        saga = mset.get_info("saga")
        if saga is not None:
            members = self._sagas.setdefault(saga, [])
            if tid not in members:
                members.append(tid)
        decided = self._decided.get(tid)
        if decided is None:
            if tid not in self._undecided:
                self._note_drift(tid, mset.ops)  # chargeable until decided
            self._undecided[tid] = mset.keys
            for key in mset.keys:
                self._undecided_by_key.setdefault(key, set()).add(tid)
        else:
            if decided == "abort" and tid not in self._compensated:
                # The ABORT decision outran this update: decisions are
                # emitted by whichever site decides the saga, so a third
                # replica can hear the verdict (on the decider's channel)
                # before the update itself (on its origin's channel).
                # Compensate on delivery — the net effect is zero and
                # the tables end exactly as if the update had come first.
                self._compensate(tid, late=True)
            self._cut_log()
        self._undecided_gauge.set(len(self._undecided))
        return applied

    def _compensate(self, tid: Any, **how: Any) -> None:
        """Backward recovery of ``tid``: its logged inverses when every
        later operation commutes with them, else rollback and replay."""
        log = self.log
        if log.can_compensate_directly(tid):
            undone = log.compensate_directly(tid)
        elif log.records_of(tid):
            undone, replayed = log.rollback_and_replay(tid)
            self.rollback_replays += 1
            self.operations_replayed += replayed
            how["replayed"] = replayed
        else:
            undone = 0  # an update without operations
        self._compensated.add(tid)
        self.compensation_count += 1
        self.operations_undone += undone
        self._compensations_counter.inc()
        self.trace.event("compensate", tid=tid, ops=undone, **how)

    def _cut_log(self) -> None:
        """Drop the log records no rollback can reach any more: those
        below the oldest record of an update still undecided here."""
        log = self.log
        mark = log.low_water_mark(self._undecided)
        self.log_records_reclaimed += log.truncate_before(mark)

    def _accept_decision(self, mset: MSet, local: bool) -> List[MSet]:
        target = mset.get_info("decides", mset.tid)
        outcome = "abort" if mset.kind == MSetKind.ABORT else "commit"
        if target in self._decided:
            # Duplicate (recovery replay, or a second decider): the
            # first decision a tid sees is final everywhere, so state
            # is untouched — replaying decisions is idempotent.
            return []
        self._decided[target] = outcome
        keys = self._undecided.pop(target, None)
        if keys is not None:
            self._unpin(target)
            for key in keys:
                holders = self._undecided_by_key.get(key)
                if holders is not None:
                    holders.discard(target)
                    if not holders:
                        del self._undecided_by_key[key]
            self._wake(keys)  # decided: no longer a source on its keys
        if outcome == "abort":
            if keys is None:
                # The decision outran its update (they may travel on
                # different channels when a third site decided the
                # saga).  Only the verdict is recorded here; the
                # update's own delivery sees it and compensates then.
                self.trace.event("compensate-pending", tid=target)
            else:
                self._compensate(target)
                # The compensation is itself a state change queries
                # may observe mid-flight: charge it like any applied
                # update.
                if self._query_starts:
                    self._pin(mset.tid)
                    self.state.note_applied(self.clock(), mset.tid, keys)
        self._cut_log()
        self.applied_count += 1
        self.last_applied_at = self.clock()
        self._undecided_gauge.set(len(self._undecided))
        return [mset]

    def _query_sources(self, key: str, start: float) -> Set[Any]:
        sources = super()._query_sources(key, start)
        undecided = self._undecided_by_key.get(key)
        if undecided:
            sources = sources | undecided
        return sources

    def _method_checkpoint(self) -> Dict[str, Any]:
        return {
            "compe": {
                "log": [
                    [r.tid, encode_op(r.op), r.prior_value]
                    for r in self.log.records
                ],
                "undecided": {
                    tid: list(keys)
                    for tid, keys in self._undecided.items()
                },
                "decided": dict(self._decided),
                "compensated": sorted(self._compensated),
                "sagas": {s: list(t) for s, t in self._sagas.items()},
                **{name: getattr(self, name) for name in self._COUNTERS},
            }
        }

    def _method_restore(self, state: Dict[str, Any]) -> None:
        super()._method_restore(state)
        compe = state.get("compe", {})
        self.log.load(
            (tid, decode_op(op), prior)
            for tid, op, prior in compe.get("log", ())
        )
        self._undecided = {
            tid: tuple(keys)
            for tid, keys in dict(compe.get("undecided", {})).items()
        }
        self._undecided_by_key = {}
        for tid, keys in self._undecided.items():
            self._restore_pin(state, tid)
            for key in keys:
                self._undecided_by_key.setdefault(key, set()).add(tid)
        self._decided = dict(compe.get("decided", {}))
        self._compensated = set(compe.get("compensated", ()))
        self._sagas = {
            s: list(t) for s, t in dict(compe.get("sagas", {})).items()
        }
        for name in self._COUNTERS:
            setattr(self, name, int(compe.get(name, 0)))
        self._undecided_gauge.set(len(self._undecided))

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out["undecided"] = len(self._undecided)
        out["compensations"] = self.compensation_count
        out["operations_undone"] = self.operations_undone
        return out
