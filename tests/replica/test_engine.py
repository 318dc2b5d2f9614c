"""The engines on the simulator side: the simulator's COMMU, RITU,
ORDUP and COMPE sites run the live runtime's engine classes, and an engine's
divergence accounting holds on its own."""

import asyncio

import pytest

from repro.core.operations import IncrementOp, MultiplyOp, ReadOp, WriteOp
from repro.core.transactions import (
    UNLIMITED,
    EpsilonSpec,
    QueryET,
    UpdateET,
    reset_tid_counter,
)
from repro.live.engine import ENGINES
from repro.replica import (
    CommutativeOperations,
    CompensationBased,
    OrderedUpdates,
    ReadIndependentUpdates,
    ReplicatedSystem,
    SystemConfig,
)
from repro.replica.engine import (
    CommuLiveEngine,
    OrdupLiveEngine,
    RituLiveEngine,
    RituMvLiveEngine,
)
from repro.sim.network import ConstantLatency, UniformLatency
from repro.sim.site import SiteConfig


@pytest.fixture(autouse=True)
def _fresh():
    reset_tid_counter()


@pytest.mark.parametrize(
    "method,engine",
    [
        (CommutativeOperations(), "commu"),
        (ReadIndependentUpdates(versioning="overwrite"), "ritu"),
        (ReadIndependentUpdates(versioning="multiversion"), "ritu-mv"),
        (OrderedUpdates(ordering="central"), "ordup"),
        (OrderedUpdates(ordering="lamport"), "ordup"),
        (CompensationBased(), "compe"),
        (CompensationBased(ordered=True), "compe"),
    ],
    ids=[
        "commu", "ritu", "ritu-mv", "ordup-central", "ordup-lamport",
        "compe", "compe-ordered",
    ],
)
def test_each_site_runs_the_live_engine(method, engine):
    system = ReplicatedSystem(method, SystemConfig(n_sites=3))
    for name, site in system.sites.items():
        hosted = method.engines[name]
        assert type(hosted) is ENGINES[engine]
        assert hosted.store is site.store


class TestHostCounters:
    def test_a_peer_holds_the_counters_from_receipt_until_its_apply(self):
        """site0's update reaches site1 at 1 and site2 at 10; each apply
        takes two units, so site0 applies at 2, site1 at 3, site2 at 12."""
        method = CommutativeOperations()
        config = SystemConfig(
            n_sites=3,
            latency=ConstantLatency(1.0),
            site=SiteConfig(apply_time=2.0),
        )
        system = ReplicatedSystem(method, config)
        system.network.set_link_latency(
            "site0", "site2", ConstantLatency(10.0)
        )
        system.submit(UpdateET([IncrementOp("x", 1)]), "site0")
        seen = []

        def look():
            seen.append(tuple(
                (method.engines[name].state.count("x"),
                 system.sites[name].store.get("x", 0))
                for name in system.sites
            ))

        for at in (1.5, 2.5, 3.5, 10.5, 12.5):
            system.sim.schedule(at, look)
        system.run_to_quiescence()
        # (counter, value) per site; the origin keeps its counter until
        # every site has applied.
        assert seen == [
            ((1, 0), (1, 0), (0, 0)),
            ((1, 1), (1, 0), (0, 0)),
            ((1, 1), (0, 1), (0, 0)),
            ((1, 1), (0, 1), (1, 0)),
            ((0, 1), (0, 1), (0, 1)),
        ]

    @pytest.mark.parametrize("versioning", ["overwrite", "multiversion"])
    def test_every_site_hears_the_update_fully_acked(self, versioning):
        method = ReadIndependentUpdates(versioning=versioning)
        config = SystemConfig(n_sites=3, latency=ConstantLatency(1.0))
        system = ReplicatedSystem(method, config)
        heard = {}
        for name, engine in method.engines.items():
            engine.fully_acked_many = (
                lambda items, name=name: heard.setdefault(name, []).extend(
                    tid for tid, _ in items
                )
            )
        et = UpdateET([WriteOp("x", 1)])
        system.submit(et, "site1")
        system.run_to_quiescence()
        assert heard == {name: [et.tid] for name in system.sites}


class TestEngineCharges:
    def test_a_restarted_query_drops_its_charges(self):
        engine = CommuLiveEngine("s0", clock=lambda: 0.0)
        mset = engine.make_mset("s0:1", [IncrementOp("x", 1)])
        engine.accept(mset, local=True)
        budget = engine.open_query(EpsilonSpec(import_limit=UNLIMITED), ["x"])
        assert engine.read_key(budget, "x") == (True, 1)
        assert budget.imported == {mset.tid}
        engine.fully_acked_many([(mset.tid, mset.keys)])
        engine.restart_query(budget)
        assert budget.imported == set()
        assert engine.read_key(budget, "x") == (True, 1)
        assert budget.outcome({"x": 1}).inconsistency == 0
        engine.close_query(budget)

    def test_a_ritu_overwrite_is_charged_by_the_lock_counters(self):
        engine = RituLiveEngine("s0", clock=lambda: 0.0)
        mset = engine.make_mset("s0:1", [WriteOp("x", 5)])
        engine.accept(mset, local=True)
        strict = EpsilonSpec(import_limit=0)
        assert engine.read_now(["x"], strict) is None
        outcome = engine.read_now(["x"], EpsilonSpec(import_limit=1))
        assert (outcome.values, outcome.overlap) == ({"x": 5}, (mset.tid,))
        engine.fully_acked_many([(mset.tid, mset.keys)])
        outcome = engine.read_now(["x"], strict)
        assert (outcome.values, outcome.inconsistency) == ({"x": 5}, 0)


class TestRituMvStalledVtnc:
    """Transaction 1 (writing ``x`` and ``y``) is late at site s0, so
    the VTNC stays below transaction 2, which s0 originated (writing
    ``x``) and applied."""

    def _engine(self):
        engine = RituMvLiveEngine("s0", clock=lambda: 0.0)
        for key in ("x", "y"):
            engine.mvstore.install(key, 1, 0)
        mset = engine.make_mset("s0:2", [WriteOp("x", 7)], order=(2, 0))
        engine.accept(mset, local=True)
        assert engine.vtnc == 0
        return engine, mset

    def test_an_unacked_version_above_the_vtnc_is_charged(self):
        engine, mset = self._engine()
        outcome = engine.read_now(["x"], EpsilonSpec(import_limit=UNLIMITED))
        assert (outcome.values, outcome.inconsistency) == ({"x": 7}, 1)

    def test_a_fully_acked_version_above_the_vtnc_is_free(self):
        engine, mset = self._engine()
        engine.fully_acked_many([(mset.tid, mset.keys)])
        strict = EpsilonSpec(import_limit=0)
        outcome = engine.read_now(["x"], strict)
        assert (outcome.values, outcome.inconsistency) == ({"x": 7}, 0)

    def test_a_strict_two_key_query_reads_the_vtnc_snapshot(self):
        """Reading x from transaction 2 and y without transaction 1,
        ordered before it on x, would be no serial order."""
        engine, mset = self._engine()
        engine.fully_acked_many([(mset.tid, mset.keys)])
        strict = EpsilonSpec(import_limit=0)
        outcome = asyncio.run(engine.query(["x", "y"], strict))
        assert (outcome.values, outcome.inconsistency) == (
            {"x": 1, "y": 1}, 0
        )
        late = engine.make_mset(
            "s1:1", [WriteOp("x", 5), WriteOp("y", 5)], order=(1, 0)
        )
        engine.accept(late)
        outcome = asyncio.run(engine.query(["x", "y"], strict))
        assert (outcome.values, outcome.inconsistency) == (
            {"x": 7, "y": 5}, 0
        )

    def test_the_record_goes_once_the_vtnc_passes_the_writer(self):
        engine, mset = self._engine()
        engine.fully_acked_many([(mset.tid, mset.keys)])
        late = engine.make_mset("s1:1", [WriteOp("y", 1)], order=(1, 0))
        engine.accept(late)
        assert engine.vtnc == 2
        assert engine._everywhere == set()
        assert engine._pins == {}


class TestHostedOrdup:
    @pytest.mark.parametrize("ordering", ["central", "lamport"])
    def test_every_engine_applies_gap_free_tokens(self, ordering):
        """Lamport stamps (time, site index) never reach an engine, which
        reads ``order[1]`` as the leadership epoch: each site releases
        its k-th stable MSet as token (k, 0)."""
        method = OrderedUpdates(ordering=ordering)
        config = SystemConfig(n_sites=3, latency=UniformLatency(0.5, 3.0))
        system = ReplicatedSystem(method, config)
        for i in range(12):
            op = IncrementOp("x", 1) if i % 2 else MultiplyOp("x", 2)
            system.submit_at(float(i) / 3, UpdateET([op]), "site%d" % (i % 3))
        system.run_to_quiescence()
        assert system.converged()
        for engine in method.engines.values():
            assert engine.frontier == (12, 0)
            assert engine.buffer.expected == 13 and engine.quiescent()


def _two_key_scenario():
    """An ORDUP engine that has applied token 1 (x = 1), and token 2,
    writing y, to deliver between a query's two reads."""
    engine = OrdupLiveEngine("s0", clock=lambda: 0.0)
    engine.accept(engine.make_mset("s0:1", [IncrementOp("x", 1)], order=(1, 0)))
    late = engine.make_mset("s1:2", [IncrementOp("y", 5)], order=(2, 0))
    return engine, late


async def _query_around(engine, spec, between):
    """``engine.query(["x", "y"], spec)``, running ``between`` once
    the query has read ``x`` and yielded."""
    query = asyncio.ensure_future(engine.query(["x", "y"], spec))
    await asyncio.sleep(0)
    between()
    return await query


class TestOrdupQuery:
    def test_a_refused_second_read_gets_the_ordered_snapshot(self):
        """The second read finds y's writer beyond the query's start
        frontier, and the budget cannot take its drift: the query
        converts to ordered mode, one wait."""
        engine, late = _two_key_scenario()
        spent = EpsilonSpec(value_limit=1.0)
        outcome = asyncio.run(
            _query_around(engine, spent, lambda: engine.accept(late))
        )
        assert outcome.values == {"x": 1, "y": 5}
        assert (outcome.waits, outcome.inconsistency) == (1, 0)

    @pytest.mark.parametrize("limit", [UNLIMITED, 1.0])
    def test_the_steps_and_the_async_query_agree(self, limit):
        spec = EpsilonSpec(value_limit=limit)
        engine, late = _two_key_scenario()
        budget = engine.open_query(spec, ["x", "y"])
        values = {}
        for key in ("x", "y"):
            read, value = engine.read_key(budget, key)
            if not read:
                stepped = budget.outcome(engine.read_ordered(["x", "y"]), 1)
                break
            values[key] = value
            if key == "x":
                engine.accept(late)
        else:
            stepped = budget.outcome(values)
        engine.close_query(budget)

        engine, late = _two_key_scenario()
        queried = asyncio.run(
            _query_around(engine, spec, lambda: engine.accept(late))
        )
        assert queried == stepped
        assert queried.values == {"x": 1, "y": 5}


class TestBoundedBookkeeping:
    @pytest.mark.parametrize(
        "method",
        [
            CommutativeOperations(),
            OrderedUpdates(),
            CompensationBased(decision_delay=2.0),
        ],
        ids=["commu", "ordup", "compe"],
    )
    def test_a_quiescent_run_keeps_no_per_et_entries(self, method):
        """The host keeps no ET once every update is applied
        everywhere and every query is done."""
        config = SystemConfig(
            n_sites=3, seed=4, latency=UniformLatency(0.5, 2.0),
            initial=(("x", 0), ("y", 0)),
        )
        system = ReplicatedSystem(method, config)
        for i in range(200):
            at = float(i) / 4
            site = "site%d" % (i % 3)
            system.submit_at(at, UpdateET([IncrementOp("xy"[i % 2], 1)]), site)
            query = QueryET([ReadOp("x"), ReadOp("y")], EpsilonSpec(import_limit=1))
            system.submit_at(at, query, site)
        system.run_to_quiescence()
        assert len(system.results) == 400
        assert method._ets == {}
