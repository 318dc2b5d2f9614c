"""Property tests: lock-manager safety invariants under random scripts.

Whatever sequence of ``try_acquire`` and ``release_all`` calls
happens, the lock manager must never let two pairwise-incompatible
grants coexist on a key — that invariant is what makes Tables 2/3 safe
to trust — and a released transaction must leave no grant behind.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.locks import (
    CLASSIC_2PL,
    COMMU_TABLE,
    LockManager,
    LockMode,
    ORDUP_TABLE,
)
from repro.core.operations import IncrementOp, MultiplyOp, ReadOp

_TABLES = {
    "classic": CLASSIC_2PL,
    "ordup": ORDUP_TABLE,
    "commu": COMMU_TABLE,
}

_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["acquire", "release"]),
        st.integers(min_value=1, max_value=5),  # tid
        st.sampled_from(["j", "k"]),  # key
        st.sampled_from(["RU", "WU", "RQ", "inc", "mul"]),  # flavor
    ),
    max_size=30,
)


def _request(flavor, key):
    if flavor == "RU":
        return LockMode.R_U, ReadOp(key)
    if flavor == "RQ":
        return LockMode.R_Q, ReadOp(key)
    if flavor == "inc":
        return LockMode.W_U, IncrementOp(key, 1)
    if flavor == "mul":
        return LockMode.W_U, MultiplyOp(key, 2)
    return LockMode.W_U, IncrementOp(key, 1)


def _holders_pairwise_compatible(manager, table):
    for key in ("j", "k"):
        holders = manager.holders_of(key)
        for i, a in enumerate(holders):
            for b in holders[i + 1:]:
                if a.tid == b.tid:
                    continue
                ok_ab, _ = table.compatible(a.mode, a.op, b.mode, b.op)
                ok_ba, _ = table.compatible(b.mode, b.op, a.mode, a.op)
                if not (ok_ab and ok_ba):
                    return False
    return True


class TestLockSafety:
    @settings(max_examples=80, deadline=None)
    @given(actions=_ACTIONS, table_name=st.sampled_from(sorted(_TABLES)))
    def test_no_incompatible_coholders_ever(self, actions, table_name):
        table = _TABLES[table_name]
        manager = LockManager(table)
        for kind, tid, key, flavor in actions:
            if kind == "acquire":
                mode, op = _request(flavor, key)
                manager.try_acquire(tid, key, mode, op)
            else:
                manager.release_all(tid)
            assert _holders_pairwise_compatible(manager, table)

    @settings(max_examples=60, deadline=None)
    @given(actions=_ACTIONS, table_name=st.sampled_from(sorted(_TABLES)))
    def test_release_all_leaves_no_trace(self, actions, table_name):
        manager = LockManager(_TABLES[table_name])
        tids = set()
        for kind, tid, key, flavor in actions:
            if kind == "acquire":
                mode, op = _request(flavor, key)
                manager.try_acquire(tid, key, mode, op)
                tids.add(tid)
            else:
                manager.release_all(tid)
        for tid in tids:
            manager.release_all(tid)
        for key in ("j", "k"):
            assert manager.holders_of(key) == []


class TestSimulatorOrderingProperty:
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1,
            max_size=30,
        )
    )
    def test_events_fire_in_nondecreasing_time(self, delays):
        from repro.sim.events import Simulator

        sim = Simulator(seed=1)
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
