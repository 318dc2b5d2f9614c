"""Tests for the quasi-copies baseline (section 5.2)."""

import pytest

from repro.core.operations import IncrementOp, ReadOp
from repro.core.transactions import (
    QueryET,
    UpdateET,
    reset_tid_counter,
)
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.quasicopy import ClosenessSpec, QuasiCopies
from repro.sim.network import ConstantLatency


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _system(closeness=None, n=3):
    return ReplicatedSystem(
        QuasiCopies(closeness),
        SystemConfig(
            n_sites=n,
            seed=1,
            latency=ConstantLatency(1.0),
            initial=(("x", 0),),
        ),
    )


class TestClosenessSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClosenessSpec(version_lag=-1)

    def test_defaults(self):
        spec = ClosenessSpec()
        assert spec.version_lag == 2


class TestPrimaryUpdates:
    def test_updates_serialize_at_primary(self):
        system = _system()
        system.submit(UpdateET([IncrementOp("x", 5)]), "site1")
        system.run_to_quiescence()
        assert system.sites["site0"].store.get("x") == 5

    def test_update_from_primary_is_cheaper(self):
        system = _system()
        system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        system.submit(UpdateET([IncrementOp("x", 1)]), "site2")
        system.run_to_quiescence()
        by_site = {r.site: r for r in system.results}
        # Both report primary as the executing site; compare latency by
        # origin instead.
        latencies = sorted(r.latency for r in system.results)
        assert latencies[0] < latencies[1]


class TestCloseness:
    def test_within_lag_no_refresh(self):
        """Secondaries may lag up to version_lag versions."""
        system = _system(ClosenessSpec(version_lag=5))
        for _ in range(3):
            system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        system.run_to_quiescence()
        assert system.method.refresh_count == 0
        # Quasi-copies intentionally do NOT converge: bounded staleness
        # persists at quiescence (the contrast with ESR).
        assert system.sites["site1"].store.get("x") == 0

    def test_exceeding_lag_triggers_refresh(self):
        system = _system(ClosenessSpec(version_lag=2))
        for _ in range(4):
            system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        system.run_to_quiescence()
        assert system.method.refresh_count > 0
        # After the refresh the secondary is within the bound again.
        primary = system.sites["site0"].store.get("x")
        secondary = system.sites["site1"].store.get("x")
        assert primary - secondary <= 2 + 1  # one in-flight refresh slack

    def test_zero_lag_keeps_secondaries_current(self):
        system = _system(ClosenessSpec(version_lag=0))
        for _ in range(3):
            system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        system.run_to_quiescence()
        assert system.sites["site1"].store.get("x") == 3


class TestQueries:
    def test_local_reads_report_staleness(self):
        system = _system(ClosenessSpec(version_lag=10))
        system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        system.run_to_quiescence()
        system.submit(QueryET([ReadOp("x")]), "site1")
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.values["x"] == 0  # stale quasi-copy
        assert query.inconsistency == 1  # one stale key detected

    def test_primary_reads_never_stale(self):
        system = _system(ClosenessSpec(version_lag=10))
        system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        system.run_to_quiescence()
        system.submit(QueryET([ReadOp("x")]), "site0")
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.values["x"] == 1
        assert query.inconsistency == 0
