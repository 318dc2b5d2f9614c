"""Local ET scheduler: concurrent ETs under a divergence control engine.

Replica control (the :mod:`repro.replica` layer) keeps replicas of one
logical object consistent *across* sites.  Divergence control — the
paper's analogue of concurrency control (section 2.1) — orders the
operations of concurrent ETs *within* one site.  This module supplies
the missing executor: it runs many ETs concurrently over simulated
time at a single site, asking a :class:`~repro.core.divergence`
engine to admit each operation.

It exists for two reasons:

* it turns Tables 2 and 3 from static matrices into *measurable
  behavior* — the ablation benchmark sweeps the lock table and reports
  throughput/blocking (classic 2PL vs ORDUP vs COMMU);
* it gives applications a tested local transaction layer should they
  embed ETs without replication.

Scheduling model: each ET is a coroutine of operations; an operation
occupies ``op_time`` simulated time once admitted.  WAIT decisions are
retried (with a small backoff) until the blocker commits; REJECT
decisions abort the ET, which restarts with a fresh timestamp up to
``max_restarts`` times (timestamp-ordering engines need restarts to
guarantee progress).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..sim.events import Simulator
from ..storage.kv import KeyValueStore
from .divergence import Admission, BasicTimestampDC, DivergenceControl
from .operations import Operation, is_write
from .transactions import (
    EpsilonTransaction,
    ETResult,
    ETStatus,
    TransactionID,
)

__all__ = ["LocalScheduler", "ScheduledET"]


@dataclass
class ScheduledET:
    """Book-keeping for one ET executing in the scheduler."""

    et: EpsilonTransaction
    on_done: Callable[[ETResult], None]
    result: ETResult = None  # type: ignore[assignment]
    index: int = 0
    restarts: int = 0
    #: consecutive WAIT decisions on the current operation; reset on
    #: progress.  Exceeding the scheduler's wait limit aborts the ET —
    #: the only deadlock resolution: the lock manager grants or refuses
    #: and keeps no waits-for graph (e.g. two read-modify-write ETs
    #: deadlocking on a lock upgrade).
    consecutive_waits: int = 0
    #: pending writes staged until commit (strict 2PL discipline).
    staged: List[Operation] = field(default_factory=list)


class LocalScheduler:
    """Run ETs concurrently at one site under a divergence engine."""

    RETRY_DELAY = 0.25

    def __init__(
        self,
        sim: Simulator,
        dc: DivergenceControl,
        store: Optional[KeyValueStore] = None,
        op_time: float = 0.5,
        max_restarts: int = 20,
        wait_limit: int = 40,
    ) -> None:
        """``wait_limit`` bounds consecutive WAIT retries on a single
        operation before the ET aborts and restarts — the timeout that
        resolves deadlocks the polling model cannot observe.
        """
        self.sim = sim
        self.dc = dc
        self.store = store or KeyValueStore()
        self.op_time = op_time
        self.max_restarts = max_restarts
        self.wait_limit = wait_limit
        self._active: Dict[TransactionID, ScheduledET] = {}
        self.completed: List[ETResult] = []
        #: total WAIT decisions observed (the blocking metric the
        #: lock-table ablation reports).
        self.wait_count = 0
        self.abort_count = 0

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        et: EpsilonTransaction,
        on_done: Optional[Callable[[ETResult], None]] = None,
    ) -> None:
        """Start executing ``et`` now."""
        state = ScheduledET(et, on_done or (lambda result: None))
        state.result = ETResult(et, start_time=self.sim.now)
        self._active[et.tid] = state
        self._begin(state)
        self._step(state)

    def _begin(self, state: ScheduledET) -> None:
        if isinstance(self.dc, BasicTimestampDC):
            # Fresh timestamp per (re)start: restart = later position
            # in the timestamp order.
            self.dc.begin(state.et, timestamp=self.sim.now + state.restarts)
        else:
            self.dc.begin(state.et)

    # -- execution loop --------------------------------------------------------

    def _step(self, state: ScheduledET) -> None:
        if state.index >= len(state.et.operations):
            self._commit(state)
            return
        op = state.et.operations[state.index]
        decision = self.dc.request(state.et, op)
        if decision.admission is Admission.WAIT:
            self.wait_count += 1
            state.result.waits += 1
            state.consecutive_waits += 1
            if state.consecutive_waits > self.wait_limit:
                # Timed out: assume deadlock, release and restart.
                self._abort_and_maybe_restart(state)
                return
            self.sim.schedule(self.RETRY_DELAY, lambda: self._step(state))
            return
        if decision.admission is Admission.REJECT:
            self._abort_and_maybe_restart(state)
            return
        state.consecutive_waits = 0
        # Admitted (possibly with charge, already accounted by the DC).
        def complete() -> None:
            self._apply(state, op)
            state.index += 1
            self._step(state)

        self.sim.schedule(self.op_time, complete)

    def _apply(self, state: ScheduledET, op: Operation) -> None:
        if is_write(op):
            # Effects become visible at commit; stage them (strict
            # execution — aborts never expose dirty data).
            state.staged.append(op)
            return
        state.result.values[op.key] = self.store.get(op.key, 0)

    def _commit(self, state: ScheduledET) -> None:
        if not self.dc.validate(state.et):
            # Optimistic engines may refuse at commit time.
            self._abort_and_maybe_restart(state)
            return
        for op in state.staged:
            self.store.apply(op, default=0)
        self.dc.commit(state.et)
        self._active.pop(state.et.tid, None)
        state.result.status = ETStatus.COMMITTED
        state.result.finish_time = self.sim.now
        state.result.inconsistency = self.dc.inconsistency_of(state.et.tid)
        self.completed.append(state.result)
        state.on_done(state.result)

    def _abort_and_maybe_restart(self, state: ScheduledET) -> None:
        self.abort_count += 1
        self.dc.abort(state.et)
        state.staged.clear()
        state.result.values.clear()
        state.index = 0
        state.consecutive_waits = 0
        state.restarts += 1
        if state.restarts > self.max_restarts:
            self._active.pop(state.et.tid, None)
            state.result.status = ETStatus.ABORTED
            state.result.finish_time = self.sim.now
            self.completed.append(state.result)
            state.on_done(state.result)
            return
        delay = self.RETRY_DELAY * (1 + state.restarts)

        def restart() -> None:
            self._begin(state)
            self._step(state)

        self.sim.schedule(delay, restart)

    # -- inspection ----------------------------------------------------------------

    def drained(self) -> bool:
        return not self._active
