"""Tests for the registered experiments: the paper's tables and claims.

These are the *reproduction assertions*: each test pins the shape the
paper predicts, so a regression in any method shows up as a failed
reproduction rather than a silently different number.  Every registry
entry runs once per module, with its default arguments — the run that
``python -m repro run all`` writes to ``results/``.
"""

import pytest

from repro.core.history import History
from repro.core.locks import (
    CLASSIC_2PL,
    COMMU_TABLE,
    LockManager,
    LockMode,
    ORDUP_TABLE,
)
from repro.core.operations import IncrementOp, MultiplyOp, ReadOp, WriteOp
from repro.core.serializability import is_epsilon_serial
from repro.core.transactions import (
    QueryET,
    UNLIMITED,
    UpdateET,
    reset_tid_counter,
)
from repro.harness.experiments import EXPERIMENTS
from repro.replica.base import ReplicatedSystem, SystemConfig
from repro.replica.host import CommutativeOperations, OrderedUpdates
from repro.replica.mset import MSet, MSetKind


@pytest.fixture(scope="module")
def data():
    """``data(eid)``: the registry entry's data, computed once."""
    cache = {}

    def get(eid):
        if eid not in cache:
            cache[eid] = EXPERIMENTS[eid]()[1]
        return cache[eid]

    return get


_SYNC = ("ROWA-2PC", "QUORUM", "PRIMARY")


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "T1", "T2", "T3",
            "E1", "E2", "E3", "E4", "E5",
            "E6", "E7", "E8", "E9", "E10",
            "A1", "A2", "A3", "A4",
            "X1", "X2", "X3", "X4", "X5",
        }


class TestTable1:
    def test_matches_paper(self, data):
        t1 = data("T1")
        assert t1["ORDUP"]["Kind of Restriction"] == "message delivery"
        assert t1["COMMU"]["Sorting Time"] == "doesn't matter"
        assert t1["RITU"]["Sorting Time"] == "at read"
        assert t1["COMPE"]["Applicability"] == "Backwards"
        assert t1["ORDUP"]["Asynchronous Propagation"] == "Query only"
        for name in ("COMMU", "RITU", "COMPE"):
            assert t1[name]["Asynchronous Propagation"] == "Query & Update"

    def test_ordup_holds_back_an_out_of_order_mset(self):
        """Sequence number 2 delivered before 1 must not execute."""
        reset_tid_counter()
        system = ReplicatedSystem(
            OrderedUpdates(), SystemConfig(n_sites=2, initial=(("x", 0),))
        )
        site = system.sites["site1"]
        later = MSet(99, MSetKind.UPDATE, (IncrementOp("x", 5),),
                     "site0", (2, 0))
        system.method.runtime.update_submitted(
            UpdateET([IncrementOp("x", 5)])
        )
        system.method.handle_message(site, later)
        system.sim.run(until=10.0)
        assert site.store.get("x") == 0

    def test_commu_applies_msets_in_any_order(self):
        reset_tid_counter()
        system = ReplicatedSystem(
            CommutativeOperations(),
            SystemConfig(n_sites=2, initial=(("x", 0),)),
        )
        site = system.sites["site1"]
        for _ in (7, 5):
            et = UpdateET([IncrementOp("x", 1)])
            system.method._ets[et.tid] = et
            system.method.runtime.update_submitted(et, copies=1)
            mset = MSet(et.tid, MSetKind.UPDATE,
                        (IncrementOp("x", 1),), "site0")
            system.method.handle_message(site, mset)
        system.sim.run(until=10.0)
        assert site.store.get("x") == 2


_PAPER_TABLE2 = {
    "RU": ["OK", "", "OK"],
    "WU": ["", "", "OK"],
    "RQ": ["OK", "OK", "OK"],
}


class TestTables2And3:
    def test_table2_cells(self, data):
        assert dict(data("T2")) == _PAPER_TABLE2

    def test_table3_cells(self, data):
        cells = dict(data("T3"))
        assert cells["RU"] == ["OK", "Comm", "OK"]
        assert cells["WU"] == ["Comm", "Comm", "OK"]
        assert cells["RQ"] == ["OK", "OK", "OK"]

    def test_table2_derived_by_acquiring_locks(self):
        probes = {
            LockMode.R_U: ReadOp("x"),
            LockMode.W_U: WriteOp("x", 1),
            LockMode.R_Q: ReadOp("x"),
        }
        derived = {}
        for held_mode, held_op in probes.items():
            cells = []
            for req_mode, req_op in probes.items():
                manager = LockManager(ORDUP_TABLE)
                assert manager.try_acquire(1, "x", held_mode, held_op)
                grant = manager.try_acquire(2, "x", req_mode, req_op)
                cells.append("OK" if grant is not None else "")
            derived[held_mode.value] = cells
        assert derived == _PAPER_TABLE2

    def test_table3_comm_cells_resolve_by_semantics(self):
        """W_U/W_U: commuting increments coexist, Inc/Mul conflict;
        R_U/W_U: a plain write never commutes with a read."""
        manager = LockManager(COMMU_TABLE)
        assert manager.try_acquire(1, "x", LockMode.W_U, IncrementOp("x", 1))
        assert manager.try_acquire(2, "x", LockMode.W_U, IncrementOp("x", 2))
        manager = LockManager(COMMU_TABLE)
        assert manager.try_acquire(1, "x", LockMode.W_U, IncrementOp("x", 1))
        assert manager.try_acquire(
            2, "x", LockMode.W_U, MultiplyOp("x", 2)
        ) is None
        manager = LockManager(COMMU_TABLE)
        assert manager.try_acquire(1, "x", LockMode.R_U, ReadOp("x"))
        assert manager.try_acquire(
            2, "x", LockMode.W_U, WriteOp("x", 1)
        ) is None

    def test_commu_admits_what_classic_2pl_rejects(self):
        """50 concurrent increments on one object: 50 grants under the
        COMMU table, 1 under classic 2PL."""

        def grants_under(table):
            manager = LockManager(table)
            return sum(
                1
                for tid in range(1, 51)
                if manager.try_acquire(
                    tid, "hot", LockMode.W_U, IncrementOp("hot", 1)
                )
            )

        assert grants_under(COMMU_TABLE) == 50
        assert grants_under(CLASSIC_2PL) == 1


class TestE1:
    def test_paper_log_classification(self, data):
        assert data("E1") == {
            "full_log_serial": False,
            "full_log_sr": False,
            "epsilon_serial": True,
            "update_projection_serial": True,
        }

    def test_commutative_updates_are_always_epsilon_serial(self):
        """100 ETs, 800 operations, round-robin interleaved: the
        updates commute, so the log is epsilon-serial."""
        reset_tid_counter()
        history = History()
        ets = []
        for t in range(100):
            if t % 3 == 2:
                et = QueryET([ReadOp("k%d" % (i % 7)) for i in range(8)])
            else:
                et = UpdateET(
                    [IncrementOp("k%d" % (i % 7), 1) for i in range(8)]
                )
            history.register(et)
            ets.append(et)
        for i in range(8):
            for et in ets:
                history.record(et.tid, et.operations[i])
        assert is_epsilon_serial(history)


class TestE2Scaleup:
    def test_async_beats_sync_at_every_scale(self, data):
        e2 = data("E2")
        for n in (2, 4, 8):
            async_worst = max(
                e2[m][n]["update_latency"] for m in ("COMMU", "RITU", "ORDUP")
            )
            sync_best = min(e2[m][n]["update_latency"] for m in _SYNC)
            assert async_worst < sync_best, "no async win at n=%d" % n

    def test_sync_degrades_with_replicas_async_stays_flat(self, data):
        e2 = data("E2")
        assert (
            e2["ROWA-2PC"][8]["update_latency"]
            > e2["ROWA-2PC"][2]["update_latency"]
        )
        assert (
            e2["COMMU"][8]["update_latency"]
            <= e2["COMMU"][2]["update_latency"] + 0.5
        )
        for method in e2.values():
            for n in (2, 4, 8):
                assert method[n]["converged"] == 1.0


class TestE3EpsilonSweep:
    def test_error_monotone_in_epsilon_and_zero_at_strict(self, data):
        e3 = data("E3")
        assert e3[0]["max_inconsistency"] == 0
        for eps, row in e3.items():
            if eps != UNLIMITED:
                assert row["max_inconsistency"] <= eps
        errors = [row["max_inconsistency"] for row in e3.values()]
        assert errors == sorted(errors)

    def test_all_queries_within_bound(self, data):
        """Every query keeps its epsilon and its overlap bound."""
        for row in data("E3").values():
            assert row["within_bound"] == 1.0
            assert row["error_within_overlap"] == 1.0

    def test_strict_queries_wait_more(self, data):
        e3 = data("E3")
        assert e3[0]["waits"] >= e3[UNLIMITED]["waits"]


class TestE4Convergence:
    def test_partition_diverges_and_quiescence_converges(self, data):
        e4 = data("E4")
        assert e4["peak_divergence"] > 0
        assert e4["final_divergence"] == 0.0
        samples = list(zip(e4["times"], e4["divergences"]))
        during = [d for t, d in samples if 10.0 <= t <= 50.0]
        after = [d for t, d in samples if t > 80.0]
        assert max(during) > max(after or [0.0])


class TestE5Ordup:
    def test_strict_queries_pay_in_waits_for_zero_error(self, data):
        e5 = data("E5")
        free, strict = e5["free (eps=inf)"], e5["strict (eps=0)"]
        assert strict["max_inconsistency"] == 0
        assert strict["waits"] > free["waits"]
        assert free["query_latency"] <= strict["query_latency"]
        for mode in e5.values():
            assert mode["one_copy_sr"] and mode["converged"]


class TestE6Commu:
    def test_update_limit_throttles_within_epsilon(self, data):
        e6 = data("E6")
        for row in e6.values():
            assert row["max_inconsistency"] <= 2
            assert row["converged"] == 1.0
        assert e6[1]["update_latency"] >= e6[UNLIMITED]["update_latency"]
        assert e6[1]["throughput"] <= e6[UNLIMITED]["throughput"] + 1e-9


class TestE7Ritu:
    def test_multiversion_strict_reads_are_free(self, data):
        e7 = data("E7")
        assert e7["overwrite eps=0"]["max_inconsistency"] == 0
        assert e7["multiversion eps=0"]["max_inconsistency"] == 0
        assert e7["multiversion eps=0"]["waits"] == 0
        assert e7["overwrite eps=0"]["waits"] > 0
        assert e7["overwrite eps=2"]["max_inconsistency"] <= 2
        assert e7["multiversion eps=2"]["max_inconsistency"] <= 2
        for variant in e7.values():
            assert variant["converged"] and variant["one_copy_sr"]


class TestE8Compe:
    def test_mixed_logs_need_rollback_and_cost_more(self, data):
        e8 = data("E8")
        commutative, mixed = e8["commutative"], e8["mixed"]
        assert commutative["rollback_replay"] == 0
        assert commutative["direct"] > 0
        assert commutative["replayed"] == 0
        assert mixed["rollback_replay"] > 0
        assert mixed["replayed"] > 0

        def cost(d):
            return (d["undone"] + d["replayed"]) / max(d["aborts"], 1)

        assert cost(mixed) > cost(commutative)
        assert commutative["converged"] and mixed["converged"]


class TestE9Availability:
    def test_async_beats_sync_during_partition(self, data):
        e9 = data("E9")
        # The paper's headline: asynchronous methods keep committing
        # during partitions; synchronous methods block.
        assert e9["COMMU"]["availability"] == 1.0
        assert e9["RITU"]["availability"] == 1.0
        for name in _SYNC:
            assert e9[name]["availability"] == 0.0
        # ORDUP orders centrally: only the server's side progresses.
        assert 0.0 < e9["ORDUP"]["availability"] < 1.0
        # And everyone still converges once the partition heals.
        for name in e9:
            assert e9[name]["converged"] == 1.0


class TestE10Latency:
    def test_sync_grows_with_link_latency_async_does_not(self, data):
        e10 = data("E10")
        for method in ("COMMU", "RITU"):
            assert e10[method][32.0] <= e10[method][0.5] + 0.5
        for method in _SYNC:
            assert e10[method][32.0] > e10[method][0.5] * 4
        for latency in e10["COMMU"]:
            async_worst = max(
                e10[m][latency] for m in ("COMMU", "RITU", "ORDUP")
            )
            sync_best = min(e10[m][latency] for m in _SYNC)
            assert async_worst < sync_best
        assert e10["ORDUP"][32.0] < e10["ROWA-2PC"][32.0]
        assert e10["ORDUP"][32.0] < e10["QUORUM"][32.0]


class TestA1LockTables:
    def test_each_relaxation_reduces_blocking(self, data):
        a1 = data("A1")
        assert all(d["completed"] == 18 for d in a1.values())
        assert a1["ordup"]["waits"] < a1["classic"]["waits"]
        assert a1["commu"]["waits"] <= a1["ordup"]["waits"]
        assert a1["commu"]["makespan"] <= a1["classic"]["makespan"]


class TestA2Ordering:
    def test_lamport_commits_sooner_but_costs_messages(self, data):
        a2 = data("A2")
        for d in a2.values():
            assert d["converged"] and d["one_copy_sr"]
        assert a2["lamport"]["commit_latency"] <= a2["central"][
            "commit_latency"
        ]
        assert a2["lamport"]["messages"] > a2["central"]["messages"]
        assert a2["lamport"]["quiescence"] > a2["central"]["quiescence"]


class TestA3CompeDelay:
    def test_longer_window_stalls_more_queries(self, data):
        a3 = data("A3")
        assert all(d["converged"] for d in a3.values())
        assert a3[24.0]["query_waits"] > a3[2.0]["query_waits"]


class TestA4DivergenceEngines:
    def test_same_state_different_currencies(self, data):
        a4 = data("A4")
        # Every engine commits every ET with no lost update.
        for name, d in a4.items():
            assert d["committed"] == 15, name
            assert d["final_a"] == 5 and d["final_b"] == 5, name
        # 2PL pays in blocking (and upgrade-deadlock timeouts); the
        # timestamp and optimistic engines never block, they restart.
        assert a4["2PL"]["waits"] > 0
        for name in ("timestamp", "optimistic"):
            assert a4[name]["waits"] == 0
            assert a4[name]["aborts"] > 0
        assert a4["optimistic"]["makespan"] < a4["2PL"]["makespan"]


class TestX1ValueEpsilon:
    def test_budget_over_deposit_bounds_imports(self, data):
        x1 = data("X1")
        assert x1[0]["imported_updates"] == 0
        assert x1[150]["imported_updates"] <= 1
        assert x1[250]["imported_updates"] <= 2
        imports = [d["imported_updates"] for d in x1.values()]
        assert imports == sorted(imports)
        assert all(d["converged"] for d in x1.values())


class TestX2QuasiCopies:
    def test_esr_commits_locally_and_converges(self, data):
        x2 = data("X2")
        commu = x2["COMMU eps=3"]
        assert commu["update_latency"] < x2["QUASI lag=2"]["update_latency"]
        assert commu["converged"]
        assert commu["max_query_error"] <= 3
        assert commu["audit"] == "ok"

    def test_quasi_copies_break_esr(self, data):
        x2 = data("X2")
        assert (
            x2["QUASI lag=8"]["mean_query_error"]
            >= x2["QUASI lag=2"]["mean_query_error"]
        )
        assert not x2["QUASI lag=8"]["converged"]
        assert x2["QUASI lag=2"]["audit"] == "overlap"
        assert x2["QUASI lag=8"]["audit"] == "converge+overlap"


class TestX3PartitionMerge:
    def test_merge_work_grows_esr_never_backs_out(self, data):
        x3 = data("X3")
        assert x3[90]["merge_pairs"] > x3[10]["merge_pairs"] * 9
        assert x3[90]["merge_backouts"] >= x3[10]["merge_backouts"]
        assert x3[90]["merge_backouts"] > 0
        assert all(d["esr_converged"] for d in x3.values())


class TestX4Deadlines:
    def test_hit_rate_monotone_and_escalation_helps(self, data):
        x4 = data("X4")
        plain = [d["plain"]["met"] for d in x4.values()]
        assert plain == sorted(plain)
        # Where the 10-unit retry timer dominates a 6-unit deadline,
        # kicking the queues at the deadline beats waiting it out.
        assert x4[6.0]["escalated"]["met"] > x4[6.0]["plain"]["met"]
        for d in x4.values():
            assert d["plain"]["converged"] and d["escalated"]["converged"]


class TestX5Bandwidth:
    def test_sync_commit_degrades_async_stays_local(self, data):
        x5 = data("X5")
        assert (
            x5[0.5]["PRIMARY"]["commit_latency"]
            > x5[8.0]["PRIMARY"]["commit_latency"]
        )
        for d in x5.values():
            assert d["COMMU"]["commit_latency"] == 0.0
            assert d["COMMU"]["converged"] and d["PRIMARY"]["converged"]
        assert x5[0.5]["COMMU"]["quiescence"] > x5[8.0]["COMMU"]["quiescence"]
