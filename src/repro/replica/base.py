"""Replica control framework: system assembly and shared machinery.

This module realizes the paper's section 2.4 framework.  A
:class:`ReplicatedSystem` wires together the substrate — simulator,
network, stable queues, sites — and delegates the three method-specific
steps to a pluggable :class:`ReplicaControlMethod`:

1. **MSet delivery** — how update MSets reach replica sites
   (``submit_update`` + the stable-queue mesh),
2. **MSet processing** — what a site does with a delivered MSet
   (``handle_message`` + the per-site serial :class:`SiteExecutor`),
3. **Divergence bounding** — how query ETs are admitted
   (``submit_query`` and the shared :class:`QueryRunner`).

Execution timing model: MSet application at a site is locally atomic
(an intra-site transaction) but takes simulated time, and query reads
are spread over time, so queries genuinely interleave with update
propagation — that interleaving is the inconsistency ESR bounds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.operations import ReadOp
from ..core.overlap import OverlapTracker
from ..core.serializability import (
    is_one_copy_serializable,
    replicas_converged,
)
from ..core.transactions import (
    EpsilonTransaction,
    ETResult,
    ETStatus,
    TransactionID,
)
from ..sim.events import Simulator
from ..sim.network import LatencyModel, Network
from ..sim.site import Site, SiteConfig
from ..sim.stable_queue import StableQueue
from .mset import MSet

__all__ = [
    "ReplicaControlMethod",
    "ReplicatedSystem",
    "SiteExecutor",
    "QueryRunner",
    "SystemConfig",
    "MethodTraits",
    "OrderedApplyBuffer",
    "LockCounterSiteState",
]

DoneCallback = Callable[[ETResult], None]


class OrderedApplyBuffer:
    """Gap-free holdback buffer for globally ordered MSets (ORDUP).

    Sites receive MSets in arbitrary order but must *apply* them in
    global sequence.  The buffer holds each MSet until every earlier
    sequence number has been offered, then releases a maximal in-order
    run.  Duplicates of already-released sequence numbers are dropped.
    :class:`~repro.replica.engine.OrdupLiveEngine` drives its applies
    through it, in the simulator and the live runtime alike.
    """

    def __init__(self, expected: int = 1) -> None:
        #: next sequence number eligible for release.
        self.expected = expected
        self._holdback: Dict[int, Any] = {}

    def offer(self, seqno: int, item: Any) -> List[Any]:
        """Add one ordered item; return the items now ready, in order."""
        if seqno < self.expected:
            return []  # duplicate of an already-released MSet
        self._holdback[seqno] = item
        ready: List[Any] = []
        while self.expected in self._holdback:
            ready.append(self._holdback.pop(self.expected))
            self.expected += 1
        return ready

    @property
    def held(self) -> int:
        """MSets waiting for an earlier sequence number."""
        return len(self._holdback)


@dataclass
class LockCounterSiteState:
    """Per-site lock-counter state (COMMU's divergence device).

    Tracks which update ETs currently hold each object's lock-counter
    at this site, plus the applied-update history that lets in-flight
    queries detect mixed observations (an update applied between two of
    their reads).  Timestamps are supplied by the caller — simulated
    time in the simulator, wall-clock time in the live runtime — which
    keeps the state machine transport-agnostic.
    """

    #: key -> set of update tids holding the counter here.
    holders: Dict[str, Set[TransactionID]] = field(default_factory=dict)
    #: key -> [(apply time, tid)] of updates applied at this site,
    #: oldest first.
    applied: Dict[str, Deque[Tuple[float, TransactionID]]] = field(
        default_factory=dict
    )
    #: every ``note_applied`` call as (time, tid, keys), oldest first:
    #: the order :meth:`prune_through` retires history in.
    _noted: Deque[Tuple[float, TransactionID, Sequence[str]]] = field(
        default_factory=deque
    )

    def note_applied(
        self, time: float, tid: TransactionID, keys: Sequence[str]
    ) -> None:
        for key in keys:
            self.applied.setdefault(key, deque()).append((time, tid))
        self._noted.append((time, tid, keys))

    def applied_since(self, key: str, start: float) -> Set[TransactionID]:
        return {tid for t, tid in self.applied.get(key, ()) if t > start}

    def prune_through(self, horizon: float) -> List[TransactionID]:
        """Forget history applied at or before ``horizon`` — what no
        ``applied_since(key, start >= horizon)`` can return — and
        return the tid of each dropped ``note_applied`` call.  Apply
        times are monotone, so this pops a prefix.  For a caller that
        knows its oldest reader (the engine's query horizon)."""
        noted = self._noted
        dropped: List[TransactionID] = []
        while noted and noted[0][0] <= horizon:
            _, tid, keys = noted.popleft()
            for key in keys:
                entries = self.applied[key]
                entries.popleft()
                if not entries:
                    del self.applied[key]
            dropped.append(tid)
        return dropped

    def raise_counters(
        self, tid: TransactionID, keys: Sequence[str]
    ) -> bool:
        """True when ``tid`` newly holds at least one counter."""
        raised = False
        for key in keys:
            held = self.holders.get(key)
            if held is None:
                held = self.holders[key] = set()
            raised |= tid not in held
            held.add(tid)
        return raised

    def release_many(
        self, items: Iterable[Tuple[TransactionID, Sequence[str]]]
    ) -> List[Tuple[TransactionID, Sequence[str]]]:
        """Release each (tid, keys) pair's counters, in order; return
        the pairs whose tid held (and now released) at least one."""
        holders = self.holders
        released = []
        for item in items:
            tid, keys = item
            freed = False
            for key in keys:
                held = holders.get(key)
                if held is not None and tid in held:
                    freed = True
                    held.discard(tid)
                    if not held:
                        del holders[key]
            if freed:
                released.append(item)
        return released

    def count(self, key: str) -> int:
        return len(self.holders.get(key, ()))

    def holders_of(self, key: str) -> Set[TransactionID]:
        return set(self.holders.get(key, ()))


@dataclass(frozen=True)
class MethodTraits:
    """Self-description of a replica control method.

    These traits regenerate the paper's Table 1: rather than hard-coding
    the table, the Table-1 benchmark *probes* each method (delivery-
    order shuffling, operation-mix acceptance, blocking behavior) and
    cross-checks the measured behavior against these declarations.
    """

    name: str
    restriction: str  #: "message delivery" / "operation semantics" / ...
    direction: str  #: "forward" or "backward"
    async_update_propagation: bool
    async_query_processing: bool
    sorting_time: str  #: "at update" / "doesn't matter" / "at read" / "N/A"


@dataclass(frozen=True)
class SystemConfig:
    """Assembly parameters for a replicated system."""

    n_sites: int = 3
    seed: int = 0
    latency: Optional[LatencyModel] = None
    loss_rate: float = 0.0
    #: per-directed-link capacity in message-units per time unit
    #: (None = infinite); MSets weigh 1 + one unit per operation.
    bandwidth: Optional[float] = None
    retry_interval: float = 5.0
    site: SiteConfig = field(default_factory=SiteConfig)
    #: logical keys preloaded at every replica.
    initial: Tuple[Tuple[str, Any], ...] = ()

    def site_names(self) -> List[str]:
        return ["site%d" % i for i in range(self.n_sites)]


class ReplicaControlMethod:
    """Interface every replica control method implements."""

    traits: MethodTraits

    def attach(self, system: "ReplicatedSystem") -> None:
        """Bind to the assembled system (called once by the system)."""
        self.system = system

    def submit_update(
        self, et: EpsilonTransaction, origin: str, on_done: DoneCallback
    ) -> None:
        raise NotImplementedError

    def submit_query(
        self, et: EpsilonTransaction, site: str, on_done: DoneCallback
    ) -> None:
        raise NotImplementedError

    def handle_message(self, site: Site, mset: MSet) -> None:
        """Process one delivered MSet at ``site``."""
        raise NotImplementedError

    def quiescent(self) -> bool:
        """Method-specific quiescence (beyond empty queues/executors)."""
        return True


class SiteExecutor:
    """Serial task executor for one site's local processing.

    Tasks run one at a time; each occupies ``duration`` simulated time
    and then its ``action`` fires atomically.  The task queue is stable
    (survives crashes); a task in flight when the site crashes restarts
    from scratch on recovery, which is safe because effects happen only
    at the atomic completion instant.
    """

    @dataclass
    class _Task:
        duration: float
        action: Callable[[], None]
        label: str = ""

    def __init__(self, sim: Simulator, site: Site) -> None:
        self.sim = sim
        self.site = site
        self._queue: List[SiteExecutor._Task] = []
        self._current: Optional[SiteExecutor._Task] = None
        self._current_handle = None
        site.on_crash.append(self._on_crash)
        site.on_recover.append(self._on_recover)

    def submit(
        self, duration: float, action: Callable[[], None], label: str = ""
    ) -> None:
        """Queue a task; it runs after everything queued before it."""
        self._queue.append(self._Task(duration, action, label))
        self._maybe_start()

    def _maybe_start(self) -> None:
        if self._current is not None or not self._queue or self.site.crashed:
            return
        task = self._queue.pop(0)
        self._current = task

        def complete() -> None:
            # Crash between scheduling and firing is handled by cancel,
            # but guard anyway.
            if self.site.crashed:
                return
            self._current = None
            self._current_handle = None
            task.action()
            self._maybe_start()

        self._current_handle = self.sim.schedule(task.duration, complete)

    def _on_crash(self) -> None:
        if self._current_handle is not None:
            self._current_handle.cancel()
            self._current_handle = None
        if self._current is not None:
            # The interrupted task restarts from scratch on recovery
            # (effects only happen at the atomic completion instant).
            self._queue.insert(0, self._current)
            self._current = None

    def _on_recover(self) -> None:
        self._maybe_start()

    def idle(self) -> bool:
        return not self._queue and self._current is None


class QueryRunner:
    """Runs a query ET's reads serially over simulated time, through
    its site's engine, with its overlap on the method's ``tracker``.

    Each read takes the site's ``read_time`` and happens at its end:
    the engine's ``read_key`` charges the query's budget for the key
    and reads it — the read is recorded in the site's history — or
    refuses, having changed nothing: the query discards its reads and,
    after ``RETRY_DELAY``, starts over, re-serializing *after* the
    conflicting updates (the paper's 'put them at the beginning or at
    the end').  Each attempt starts (``restart_query``) at its first
    read.  The runner owns retries, abort on site crash, and result
    assembly; the query's inconsistency is what its budget imported.
    """

    RETRY_DELAY = 0.25

    def __init__(
        self,
        system: "ReplicatedSystem",
        et: EpsilonTransaction,
        site: Site,
        engine: Any,
        tracker: OverlapTracker,
        on_done: DoneCallback,
        on_refused: Optional[Callable[[], None]] = None,
    ) -> None:
        """``on_refused``, when given, is called instead of the restart
        when a read is refused, and ends the query with
        :meth:`finish`."""
        self.system = system
        self.et = et
        self.site = site
        self.engine = engine
        self.tracker = tracker
        self.on_done = on_done
        self.on_refused = on_refused
        tracker.query_started(et)
        self.budget = engine.open_query(et.spec, et.keys)
        self.result = ETResult(
            et,
            start_time=system.sim.now,
            site=site.name,
        )
        self.keys = [op.key for op in et.operations]
        self._index = 0

    def start(self) -> None:
        self._step()

    def _step(self) -> None:
        if self.site.crashed:
            self.finish(ETStatus.ABORTED)
            return
        if self._index >= len(self.keys):
            self.finish(ETStatus.COMMITTED)
            return
        self.system.sim.schedule(self.site.config.read_time, self._read)

    def _read(self) -> None:
        """One read, admitted and performed at its read instant."""
        if self.site.crashed:
            self.finish(ETStatus.ABORTED)
            return
        key = self.keys[self._index]
        if self._index == 0:
            self.engine.restart_query(self.budget)
        admitted, value = self.engine.read_key(self.budget, key)
        if not admitted:
            if self.on_refused is not None:
                self.on_refused()
                return
            self.result.waits += 1
            self._index = 0
            self.result.values.clear()
            self.system.sim.schedule(self.RETRY_DELAY, self._step)
            return
        site, et = self.site, self.et
        site.history.record(et.tid, ReadOp(key), site.name, site.sim.now, et)
        self.result.values[key] = value
        self._index += 1
        self._step()

    def finish(self, status: str) -> None:
        self.result.status = status
        self.result.finish_time = self.system.sim.now
        self.result.inconsistency = len(self.budget.imported)
        tid = self.et.tid
        self.result.overlap = tuple(sorted(self.tracker.overlap_members(tid)))
        self.engine.close_query(self.budget)
        self.tracker.query_finished(tid)
        self.on_done(self.result)


class ReplicatedSystem:
    """An assembled replicated system running one control method, its
    MSets carried by the simulator's stable-queue mesh."""

    def __init__(
        self,
        method: ReplicaControlMethod,
        config: Optional[SystemConfig] = None,
    ) -> None:
        self.config = config or SystemConfig()
        self.sim = Simulator(self.config.seed)
        self.network = Network(
            self.sim,
            self.config.latency,
            self.config.loss_rate,
            bandwidth=self.config.bandwidth,
        )
        self.sites: Dict[str, Site] = {}
        self.executors: Dict[str, SiteExecutor] = {}
        for name in self.config.site_names():
            site = Site(name, self.sim, self.config.site)
            for key, value in self.config.initial:
                site.store.put(key, value)
            self.sites[name] = site
            self.executors[name] = SiteExecutor(self.sim, site)
        self.queues: Dict[Tuple[str, str], StableQueue] = {}
        self.method = method
        self.results: List[ETResult] = []
        self._pending_ets = 0
        self._build_mesh()
        # Attach last: methods may reconfigure the mesh (e.g. ORDUP's
        # Lamport mode switches every channel to FIFO).
        method.attach(self)

    # -- assembly ---------------------------------------------------------------

    def _build_mesh(self) -> None:
        names = sorted(self.sites)
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                self.queues[(src, dst)] = self._make_queue(src, dst)
        for name, site in self.sites.items():
            site.on_crash.append(
                lambda n=name: self._pause_outbound(n)
            )
            site.on_recover.append(
                lambda n=name: self._resume_outbound(n)
            )

    def _make_queue(self, src: str, dst: str) -> StableQueue:
        def deliver(mset: MSet) -> None:
            self.method.handle_message(self.sites[dst], mset)

        def size_of(mset: MSet) -> float:
            # Control header plus one unit per carried operation.
            return 1.0 + float(len(getattr(mset, "ops", ())))

        return StableQueue(
            self.sim,
            self.network,
            src,
            dst,
            deliver,
            retry_interval=self.config.retry_interval,
            jitter=0.2,
            size_of=size_of,
        )

    def _pause_outbound(self, name: str) -> None:
        for (src, _), queue in self.queues.items():
            if src == name:
                queue.pause()

    def _resume_outbound(self, name: str) -> None:
        for (src, _), queue in self.queues.items():
            if src == name:
                queue.resume()

    # -- messaging helpers --------------------------------------------------------

    def send_mset(self, src: str, dst: str, mset: MSet) -> None:
        """Queue one MSet on the (src, dst) stable channel."""
        self.queues[(src, dst)].enqueue(mset)

    def broadcast_mset(self, origin: str, mset: MSet) -> None:
        """Queue an MSet to every *other* site."""
        for name in sorted(self.sites):
            if name != origin:
                self.send_mset(origin, name, mset)

    def kick_queues(self) -> None:
        """Force immediate retries (post-partition catch-up)."""
        for queue in self.queues.values():
            queue.kick()

    # -- ET submission ---------------------------------------------------------------

    def submit(
        self,
        et: EpsilonTransaction,
        site: Optional[str] = None,
        on_done: Optional[DoneCallback] = None,
    ) -> None:
        """Submit an ET at a site (default: the ET's origin or site0)."""
        where = site or et.origin_site or sorted(self.sites)[0]
        if where not in self.sites:
            raise KeyError("unknown site %r" % where)
        self._pending_ets += 1

        def done(result: ETResult) -> None:
            self._pending_ets -= 1
            self.results.append(result)
            if on_done is not None:
                on_done(result)

        if et.is_update:
            self.method.submit_update(et, where, done)
        else:
            self.method.submit_query(et, where, done)

    def submit_at(
        self,
        time: float,
        et: EpsilonTransaction,
        site: Optional[str] = None,
        on_done: Optional[DoneCallback] = None,
    ) -> None:
        """Schedule a submission at a future simulated time."""
        self.sim.schedule_at(time, lambda: self.submit(et, site, on_done))

    # -- execution ---------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> int:
        return self.sim.run(until=until)

    def run_to_quiescence(self, max_time: float = 1_000_000.0) -> float:
        """Drain all activity; returns the quiescence time.

        Quiescence (paper section 2.2): all update MSets queued at
        individual sites have been processed.  Operationally: no
        simulator events pending, queues drained, executors idle, the
        method reports quiescent, and no ET awaits completion.
        """
        guard = 0
        while True:
            self.sim.run()  # drain every scheduled event
            if (
                all(q.drained() for q in self.queues.values())
                and all(e.idle() for e in self.executors.values())
                and self.method.quiescent()
                and self._pending_ets == 0
            ):
                return self.sim.now
            if self.sim.now >= max_time:
                raise RuntimeError("no quiescence before max_time")
            guard += 1
            if guard > 10_000:
                raise RuntimeError("quiescence loop did not settle")
            # Something is stuck waiting on a retry tick; nudge queues.
            self.kick_queues()
            if self.sim.is_quiescent():
                raise RuntimeError(
                    "deadlock: pending work but no scheduled events"
                )

    # -- correctness probes -----------------------------------------------------------------

    def site_values(self) -> Dict[str, Dict[str, Any]]:
        return {name: site.values() for name, site in self.sites.items()}

    def converged(self) -> bool:
        """All replicas hold identical values (paper's convergence)."""
        return replicas_converged(self.site_values())

    def is_one_copy_serializable(self) -> bool:
        return is_one_copy_serializable(
            {name: site.history for name, site in self.sites.items()}
        )
