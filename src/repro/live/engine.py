"""The live-only engine — the ROWA baseline — and :data:`ENGINES`,
every engine the live server runs.

The engine base and the COMMU, RITU, ORDUP and COMPE engines are in
:mod:`repro.replica.engine`, shared with the simulator (re-exported
here); ROWA subclasses COMMU's.
"""

from __future__ import annotations

from typing import Sequence

from ..core.operations import Operation
from ..replica.engine import (
    CommuLiveEngine,
    CompeLiveEngine,
    LiveEngine,
    OrdupLiveEngine,
    QueryOutcome,
    QueryTimeout,
    RituLiveEngine,
    RituMvLiveEngine,
)

__all__ = [
    "LiveEngine",
    "CommuLiveEngine",
    "OrdupLiveEngine",
    "RowaLiveEngine",
    "RituLiveEngine",
    "RituMvLiveEngine",
    "CompeLiveEngine",
    "QueryOutcome",
    "QueryTimeout",
    "make_engine",
    "ENGINES",
]


class RowaLiveEngine(CommuLiveEngine):
    """Synchronous write-all baseline (ROWA-style commit).

    Identical MSet processing to COMMU, but the origin's commit
    acknowledgement waits until every peer has durably received the
    MSet — the read-one-write-all coordination cost the asynchronous
    methods avoid.  Used by the live benchmark as the sync baseline.
    """

    method_name = "ROWA"
    sync_commit = True

    def validate_update(self, ops: Sequence[Operation]) -> None:
        # ROWA has no operation-semantics restriction; convergence for
        # non-commutative mixes is the application's concern here.
        pass


ENGINES = {
    "commu": CommuLiveEngine,
    "ordup": OrdupLiveEngine,
    "rowa": RowaLiveEngine,
    "ritu": RituLiveEngine,
    "ritu-mv": RituMvLiveEngine,
    "compe": CompeLiveEngine,
}


def make_engine(method: str, site: str) -> LiveEngine:
    try:
        factory = ENGINES[method.lower()]
    except KeyError:
        raise ValueError(
            "unknown live method %r (have: %s)"
            % (method, ", ".join(sorted(ENGINES)))
        ) from None
    return factory(site)
