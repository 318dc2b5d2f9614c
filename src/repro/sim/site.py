"""Replica sites: local state, local execution, crash/recovery.

A :class:`Site` owns the local storage substrate (plain store,
multiversion store, operation log) and the local history
recording.  Replica control methods
drive sites through small primitives — sites know nothing about any
particular method, matching the paper's framework split between "MSet
delivery" and "MSet processing" (section 2.4).

Crash model: a crashed site loses its volatile in-progress work but
its store and stable queues survive (stable storage); recovery resumes
queue processing.  This matches the paper's factoring: "we factor out
the problem of internal system consistency due to site failures by
encapsulating it in the local message processing".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..core.history import History
from ..core.operations import Operation
from ..core.transactions import EpsilonTransaction, TransactionID
from ..storage.kv import KeyValueStore
from ..storage.mvstore import MultiVersionStore
from ..storage.oplog import OperationLog
from .events import Simulator

__all__ = ["Site", "SiteConfig"]


@dataclass(frozen=True)
class SiteConfig:
    """Local execution timing (simulated time units).

    The absolute values are arbitrary; only their ratio to network
    latency matters for the benchmark shapes, as DESIGN.md notes.
    """

    #: time to apply one update operation from an MSet.
    apply_time: float = 0.1
    #: time for one query read operation.
    read_time: float = 0.5
    #: default value materialized for missing keys.
    default_value: Any = 0


class Site:
    """One replica site."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        config: Optional[SiteConfig] = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.config = config or SiteConfig()
        self.store = KeyValueStore()
        self.mvstore = MultiVersionStore()
        self.oplog = OperationLog(self.store, default=self.config.default_value)
        self.history = History()
        self.crashed = False
        #: hooks a replica control method installs (crash interruption).
        self.on_crash: List[Callable[[], None]] = []
        self.on_recover: List[Callable[[], None]] = []

    # -- local execution primitives -------------------------------------------

    def apply_op(
        self,
        tid: TransactionID,
        op: Operation,
        et: Optional[EpsilonTransaction] = None,
        logged: bool = False,
    ) -> Any:
        """Apply one operation locally and record it in the history.

        ``logged=True`` routes through the operation log so the action
        is compensatable (COMPE); otherwise it applies directly.
        """
        if self.crashed:
            raise RuntimeError("site %s is crashed" % self.name)
        if logged:
            result = self.oplog.execute(tid, op)
        else:
            result = self.store.apply(op, default=self.config.default_value)
        self.history.record(tid, op, self.name, self.sim.now, et)
        return result

    def read(self, tid: TransactionID, key: str) -> Any:
        """Read a key's current value without recording history.

        Methods record the read themselves once they decide which value
        (current vs VTNC-visible) the query actually observed.
        """
        if self.crashed:
            raise RuntimeError("site %s is crashed" % self.name)
        return self.store.get(key, self.config.default_value)

    def values(self) -> Dict[str, Any]:
        """Current store contents (convergence assertions)."""
        return self.store.as_dict()

    # -- failure model -----------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: volatile work is interrupted; storage survives."""
        if self.crashed:
            return
        self.crashed = True
        for hook in list(self.on_crash):
            hook()

    def recover(self) -> None:
        if not self.crashed:
            return
        self.crashed = False
        for hook in list(self.on_recover):
            hook()
