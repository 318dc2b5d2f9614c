"""Tests for RITU (read-independent timestamped updates)."""

import pytest

from repro.core.operations import (
    IncrementOp,
    ReadOp,
    TimestampedWriteOp,
    WriteOp,
)
from repro.core.transactions import (
    EpsilonSpec,
    QueryET,
    UNLIMITED,
    UpdateET,
    reset_tid_counter,
)
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import (
    NotReadIndependentError,
    ReadIndependentUpdates,
)
from repro.sim.network import UniformLatency


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


def _system(n=3, seed=1, versioning="multiversion", **cfg):
    config = SystemConfig(
        n_sites=n, seed=seed, initial=(("x", 0), ("y", 0)), **cfg
    )
    return ReplicatedSystem(
        ReadIndependentUpdates(versioning=versioning), config
    )


class TestRestriction:
    def test_non_blind_write_rejected(self):
        system = _system()
        with pytest.raises(NotReadIndependentError):
            system.submit(UpdateET([IncrementOp("x", 1)]), "site0")

    def test_blind_writes_accepted(self):
        system = _system()
        system.submit(UpdateET([WriteOp("x", 5)]), "site0")
        system.run_to_quiescence()
        assert system.converged()

    def test_the_et_check_is_the_ops_check_named_by_tid(self):
        check = ReadIndependentUpdates.check_ops_read_independent
        with pytest.raises(NotReadIndependentError) as bare:
            check([WriteOp("y", 1), IncrementOp("x", 1)])
        et = UpdateET([WriteOp("y", 1), IncrementOp("x", 1)])
        with pytest.raises(NotReadIndependentError) as named:
            ReadIndependentUpdates.check_read_independent(et)
        assert str(named.value) == str(bare.value).replace(
            "the update", "ET %s" % et.tid
        )
        with pytest.raises(NotReadIndependentError, match="reads inside"):
            check([ReadOp("x"), WriteOp("x", 1)])
        check((WriteOp("x", 1), TimestampedWriteOp("y", 2, (1, 0))))

    def test_invalid_versioning_rejected(self):
        with pytest.raises(ValueError):
            ReadIndependentUpdates(versioning="nope")


class TestConvergence:
    @pytest.mark.parametrize("versioning", ["overwrite", "multiversion"])
    def test_out_of_order_writes_converge(self, versioning):
        system = _system(
            n=4, versioning=versioning, latency=UniformLatency(0.1, 8.0)
        )
        for i in range(12):
            system.submit_at(
                float(i) * 0.5,
                UpdateET([WriteOp("x", 100 + i)]),
                "site%d" % (i % 4),
            )
        system.run_to_quiescence()
        assert system.converged()
        assert system.is_one_copy_serializable()

    def test_last_writer_wins_by_submission_order(self):
        system = _system(versioning="overwrite")
        system.submit(UpdateET([WriteOp("x", 1)]), "site0")
        system.submit(UpdateET([WriteOp("x", 2)]), "site1")
        system.run_to_quiescence()
        # The later submission carries the larger Lamport stamp only if
        # clocks are ordered; convergence (same winner everywhere) is
        # the real guarantee.
        values = {s.store.get("x") for s in system.sites.values()}
        assert len(values) == 1

    def test_multiversion_installs_versions(self):
        system = _system(versioning="multiversion")
        system.submit(UpdateET([WriteOp("x", 5)]), "site0")
        system.run_to_quiescence()
        for site in system.sites.values():
            versions = site.mvstore.versions_of("x")
            assert [v.value for v in versions][-1] == 5

    def test_vtnc_advances_with_propagation(self):
        system = _system(versioning="multiversion")
        for i in range(3):
            system.submit(UpdateET([WriteOp("x", i)]), "site0")
        system.run_to_quiescence()
        for site in system.sites.values():
            assert site.mvstore.vtnc == 3


class TestQueriesMultiversion:
    def test_strict_query_reads_visible_version(self):
        system = _system(
            versioning="multiversion", latency=UniformLatency(5.0, 8.0)
        )
        system.submit(UpdateET([WriteOp("x", 42)]), "site0")
        # Query at a remote site before the update propagates there.
        system.submit(
            QueryET([ReadOp("x")], EpsilonSpec(import_limit=0)), "site1"
        )
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency == 0

    def test_relaxed_query_may_read_unstable(self):
        system = _system(
            n=3, versioning="multiversion", latency=UniformLatency(3.0, 6.0)
        )
        # Two updates from different sites: the second is unstable at
        # its origin until the first arrives there.
        system.submit(UpdateET([WriteOp("x", 1)]), "site1")
        system.submit(UpdateET([WriteOp("x", 2)]), "site2")
        system.submit(
            QueryET([ReadOp("x")], EpsilonSpec(import_limit=3)), "site2"
        )
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency <= 3

    def test_stable_version_above_stale_vtnc_is_free(self):
        """A lossy link delays one MSet, pinning the VTNC below later
        versions that have already propagated everywhere.  Reading such
        a fully-stable version imports no inconsistency — charging for
        it would push the counter past the query's overlap, breaking
        the paper's upper bound (regression: found by the randomized
        invariant sweep at seed=4821/wl_seed=171)."""
        from repro.workload.generator import (
            WorkloadGenerator,
            WorkloadSpec,
            drive,
        )

        config = SystemConfig(
            n_sites=5,
            seed=4821,
            latency=UniformLatency(0.2, 2.5),
            loss_rate=0.15,
            retry_interval=2.5,
            initial=tuple(("x%d" % i, 1) for i in range(5)),
        )
        system = ReplicatedSystem(ReadIndependentUpdates(), config)
        spec = WorkloadSpec(
            n_keys=5,
            count=40,
            query_fraction=0.4,
            style="blind",
            epsilon=3,
            mean_interarrival=0.7,
        )
        drive(
            system,
            WorkloadGenerator(spec, sorted(system.sites), 171).generate(),
        )
        system.run_to_quiescence()
        assert system.converged()
        for result in system.results:
            if result.et.is_query:
                assert result.inconsistency <= len(result.overlap)

    def test_query_respects_epsilon(self):
        system = _system(
            n=4, versioning="multiversion", latency=UniformLatency(1.0, 6.0)
        )
        for i in range(10):
            system.submit_at(
                float(i) * 0.5,
                UpdateET([WriteOp("x", i)]),
                "site%d" % (i % 4),
            )
        system.submit_at(
            1.0,
            QueryET(
                [ReadOp("x"), ReadOp("y"), ReadOp("x")],
                EpsilonSpec(import_limit=1),
            ),
            "site0",
        )
        system.run_to_quiescence()
        query = [r for r in system.results if r.et.is_query][0]
        assert query.inconsistency <= 1


class TestQueriesOverwrite:
    def test_overwrite_reduces_to_commu_accounting(self):
        system = _system(
            versioning="overwrite", latency=UniformLatency(2.0, 4.0)
        )
        system.submit(UpdateET([WriteOp("x", 5)]), "site0")
        system.submit(
            QueryET([ReadOp("x")], EpsilonSpec(import_limit=5)), "site1"
        )
        system.run_to_quiescence()
        assert system.converged()

    def test_timestamped_write_ops_pass_through(self):
        system = _system(versioning="overwrite")
        system.submit(
            UpdateET([TimestampedWriteOp("x", 9, (99, 0))]), "site0"
        )
        system.run_to_quiescence()
        assert system.converged()
