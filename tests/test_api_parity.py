"""One client contract, two backends.

The simulator's :class:`repro.client.Client` and the live runtime's
:class:`repro.live.client.LiveClient` expose the same verb surface
(``write`` / ``increment`` / ``decrement`` / ``append`` / ``update`` /
``read`` / ``read_many`` / ``query`` / ``settle``), their query results
expose the same error-accounting attributes, and their failures share
:class:`repro.errors.ETError`.  The same program, run against either
backend, must produce the same answers — that is what makes application
code portable between "validate on the simulator" and "run live".
"""

import asyncio
import inspect

import pytest

from repro import (
    Client,
    CommutativeOperations,
    CompensationBased,
    Consistency,
    DecrementOp,
    ETError,
    ETFailed,
    IncrementOp,
    ReadIndependentUpdates,
    ReadOptions,
    ReplicatedSystem,
    SystemConfig,
    WriteOp,
)
from repro.core.transactions import EpsilonSpec
from repro.live import LiveCluster, LiveETFailed, ShardedCluster
from repro.live.client import LiveClient
from repro.live.router import ShardRouter

SHARED_VERBS = (
    "write",
    "increment",
    "decrement",
    "append",
    "update",
    "read",
    "read_many",
    "query",
    "settle",
)


SIM_METHODS = {
    "commu": CommutativeOperations,
    "ritu": ReadIndependentUpdates,
    # Short decision delay so run_to_quiescence covers the commit.
    "compe": lambda: CompensationBased(decision_delay=1.0),
}


class SimBackend:
    """Adapts the synchronous sim client to the async driver."""

    def __init__(self, method="commu"):
        self.method = method

    async def start(self):
        system = ReplicatedSystem(
            SIM_METHODS[self.method](), SystemConfig(n_sites=3, seed=11)
        )
        self.client = Client(system, "site0")

    async def call(self, verb, *args, **kwargs):
        return getattr(self.client, verb)(*args, **kwargs)

    async def session_call(self, fn):
        """Run ``fn(session_call)`` inside one client session."""
        with self.client.session() as session:
            async def call(verb, *args, **kwargs):
                return getattr(session, verb)(*args, **kwargs)

            return await fn(call)

    async def close(self):
        pass


class LiveBackend:
    def __init__(self, method="commu"):
        self.method = method

    async def start(self):
        self.cluster = LiveCluster(n_sites=3, method=self.method)
        await self.cluster.start()
        self.client = await self.cluster.client("site0")

    async def call(self, verb, *args, **kwargs):
        return await getattr(self.client, verb)(*args, **kwargs)

    async def session_call(self, fn):
        async with self.client.session() as session:
            async def call(verb, *args, **kwargs):
                return await getattr(session, verb)(*args, **kwargs)

            return await fn(call)

    async def close(self):
        await self.cluster.stop()


class ShardedBackend:
    """The same program again, with the keyspace split across two
    replica groups behind the client-side shard router."""

    def __init__(self, method="commu"):
        self.method = method

    async def start(self):
        self.cluster = ShardedCluster(
            n_shards=2, replicas=2, method=self.method
        )
        await self.cluster.start()
        self.client = self.cluster.router()

    async def call(self, verb, *args, **kwargs):
        return await getattr(self.client, verb)(*args, **kwargs)

    async def session_call(self, fn):
        async with self.client.session() as session:
            async def call(verb, *args, **kwargs):
                return await getattr(session, verb)(*args, **kwargs)

            return await fn(call)

    async def close(self):
        await self.cluster.stop()


BACKENDS = {"sim": SimBackend, "live": LiveBackend, "sharded": ShardedBackend}


async def _shared_program(backend):
    """The portable application: same calls, collected observations."""
    out = {}
    await backend.call("increment", "acct", 100)
    await backend.call("decrement", "acct", 30)
    await backend.call("write", "note", "hello")
    await backend.call("append", "log", "a")
    await backend.call("append", "log", "b")
    await backend.call(
        "update", [IncrementOp("acct", 5), WriteOp("flag", True)]
    )
    await backend.call("settle")
    out["acct"] = await backend.call("read", "acct")
    out["strict_acct"] = await backend.call(
        "read", "acct", Consistency.STRICT
    )
    out["many"] = await backend.call("read_many", ["acct", "note", "flag"])
    result = await backend.call(
        "query", ["acct", "log"], EpsilonSpec(import_limit=5)
    )
    out["query_values"] = dict(result.values)
    out["inconsistency"] = result.inconsistency
    out["overlap"] = tuple(result.overlap)
    out["waits"] = result.waits
    return out


async def _typed_program(backend):
    """The same portability contract over the Consistency-typed read
    surface: every backend accepts ``ReadOptions`` / ``Consistency``
    uniformly and offers session guarantees."""
    out = {}
    await backend.call("increment", "acct", 40)
    await backend.call("increment", "acct", 2)
    await backend.call("write", "note", "typed")
    await backend.call("settle")
    out["strict"] = await backend.call(
        "read", "acct", Consistency.STRICT
    )
    out["bounded"] = await backend.call(
        "read", "acct", ReadOptions(consistency=Consistency.BOUNDED(5))
    )
    out["many"] = await backend.call(
        "read_many", ["acct", "note"], Consistency.BOUNDED(3)
    )
    result = await backend.call(
        "query", ["acct"], ReadOptions(consistency=Consistency.BOUNDED(4))
    )
    out["query_acct"] = result.values["acct"]
    out["query_inconsistency"] = result.inconsistency

    async def in_session(call):
        await call("increment", "acct", 8)
        return await call("read", "acct", Consistency.SESSION)

    out["session"] = await backend.session_call(in_session)
    return out


async def _ritu_program(backend):
    """Blind timestamped writes: RITU's whole verb surface is the
    portable one — last writer wins, reads sort at query time."""
    out = {}
    await backend.call("write", "city", "akron")
    await backend.call("write", "city", "boston")
    await backend.call("write", "temp", 21)
    await backend.call("settle")
    out["city"] = await backend.call("read", "city")
    out["strict_city"] = await backend.call(
        "read", "city", Consistency.STRICT
    )
    out["many"] = await backend.call("read_many", ["city", "temp"])
    result = await backend.call(
        "query", ["city", "temp"], EpsilonSpec(import_limit=4)
    )
    out["query_values"] = dict(result.values)
    out["inconsistency"] = result.inconsistency
    return out


async def _compe_program(backend):
    """Commutative, invertible updates under compensation-based
    control: plain updates auto-commit, reads settle to the same
    answers on every backend."""
    out = {}
    await backend.call("increment", "bal", 100)
    await backend.call("decrement", "bal", 30)
    await backend.call("update", [IncrementOp("bal", 5)])
    await backend.call("increment", "pts", 7)
    await backend.call("settle")
    out["bal"] = await backend.call("read", "bal")
    out["many"] = await backend.call("read_many", ["bal", "pts"])
    result = await backend.call(
        "query", ["bal"], EpsilonSpec(import_limit=5)
    )
    out["query_bal"] = result.values["bal"]
    out["inconsistency"] = result.inconsistency
    return out


def _run(backend_name, program=_shared_program, method=None):
    async def scenario():
        cls = BACKENDS[backend_name]
        backend = cls() if method is None else cls(method)
        await backend.start()
        try:
            return await program(backend)
        finally:
            await backend.close()

    return asyncio.run(scenario())


class TestSharedSurface:
    @pytest.mark.parametrize("verb", SHARED_VERBS)
    def test_both_clients_expose_verb(self, verb):
        assert callable(getattr(Client, verb))
        assert callable(getattr(LiveClient, verb))
        assert callable(getattr(ShardRouter, verb))

    @pytest.mark.parametrize("verb", ("read", "read_many"))
    def test_budget_parameters_match(self, verb):
        """The inconsistency budget has one spelling — the typed
        ``options`` — and the live read adds only its deadline."""
        sim_params = list(
            inspect.signature(getattr(Client, verb)).parameters
        )
        live_params = list(
            inspect.signature(getattr(LiveClient, verb)).parameters
        )
        assert sim_params[2:] == ["options"]
        assert live_params == sim_params + ["timeout"]

    @pytest.mark.parametrize("verb", ("read", "read_many"))
    @pytest.mark.parametrize("cls", (Client, LiveClient, ShardRouter))
    def test_typed_options_parameter_everywhere(self, verb, cls):
        """Every backend's reads take the same typed ``options``."""
        assert "options" in inspect.signature(getattr(cls, verb)).parameters

    @pytest.mark.parametrize("cls", (Client, LiveClient, ShardRouter))
    def test_session_verb_everywhere(self, cls):
        assert callable(getattr(cls, "session"))


class TestSameProgramSameAnswers:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_program_outcome(self, backend):
        out = _run(backend)
        assert out["acct"] == 75
        assert out["strict_acct"] == 75
        assert out["many"] == {"acct": 75, "note": "hello", "flag": True}
        assert out["query_values"]["acct"] == 75
        assert sorted(out["query_values"]["log"]) == ["a", "b"]
        # Settled system: a bounded query observes zero inconsistency.
        assert out["inconsistency"] == 0
        assert out["waits"] == 0

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_typed_program_outcome(self, backend):
        out = _run(backend, _typed_program)
        assert out["strict"] == 42
        assert out["bounded"] == 42
        assert out["many"] == {"acct": 42, "note": "typed"}
        assert out["query_acct"] == 42
        assert out["query_inconsistency"] == 0
        # Read-your-writes inside the session, on every backend.
        assert out["session"] == 50

    def test_typed_backends_agree_exactly(self):
        reference = _run("sim", _typed_program)
        assert reference == _run("live", _typed_program)
        assert reference == _run("sharded", _typed_program)

    def test_backends_agree_exactly(self):
        def canonical(out):
            # JSON transport renders sequence values as lists; the sim
            # hands back tuples.  Same contents, same answer.
            out = dict(out)
            out["query_values"] = {
                key: list(value)
                if isinstance(value, (list, tuple))
                else value
                for key, value in out["query_values"].items()
            }
            return out

        reference = canonical(_run("sim"))
        assert reference == canonical(_run("live"))
        # Splitting the keyspace across groups must not change any
        # answer the program can observe.
        assert reference == canonical(_run("sharded"))


class TestMethodParity:
    """RITU and COMPE serve the same portable programs on every
    backend — simulator, one live replica group, and the sharded
    router — with the same answers and the same typed results."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_ritu_program(self, backend):
        out = _run(backend, _ritu_program, method="ritu")
        assert out["city"] == "boston"
        assert out["strict_city"] == "boston"
        assert out["many"] == {"city": "boston", "temp": 21}
        assert out["query_values"] == {"city": "boston", "temp": 21}
        assert out["inconsistency"] == 0

    def test_ritu_backends_agree_exactly(self):
        reference = _run("sim", _ritu_program, method="ritu")
        assert reference == _run("live", _ritu_program, method="ritu")
        assert reference == _run("sharded", _ritu_program, method="ritu")

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_compe_program(self, backend):
        out = _run(backend, _compe_program, method="compe")
        assert out["bal"] == 75
        assert out["many"] == {"bal": 75, "pts": 7}
        assert out["query_bal"] == 75
        assert out["inconsistency"] == 0

    def test_compe_backends_agree_exactly(self):
        reference = _run("sim", _compe_program, method="compe")
        assert reference == _run("live", _compe_program, method="compe")
        assert reference == _run(
            "sharded", _compe_program, method="compe"
        )

    @pytest.mark.parametrize("backend", ("live", "sharded"))
    def test_saga_surface_parity(self, backend):
        """The saga verbs behave identically through one replica group
        and through the shard router: abort decides every step, names
        the compensated tids, and ``abort=True`` fails with the typed
        COMPENSATED code — and the stores end where they started."""

        async def scenario():
            if backend == "live":
                cluster = LiveCluster(n_sites=3, method="compe")
                await cluster.start()
                client = await cluster.client(cluster.names[0])
            else:
                cluster = ShardedCluster(
                    n_shards=2, replicas=2, method="compe"
                )
                await cluster.start()
                client = cluster.router()
            try:
                out = {}
                await client.increment("stock_a", 10)
                await client.increment("stock_b", 10)
                def tids_of(reply):
                    # Routed updates nest per-shard frames; a single
                    # replica group answers with a bare frame.
                    if "tid" in reply:
                        return [reply["tid"]]
                    return [
                        frame["tid"]
                        for frame in reply["shards"].values()
                    ]

                r1 = await client.update(
                    [DecrementOp("stock_a", 1)], saga="order-1"
                )
                r2 = await client.update(
                    [DecrementOp("stock_b", 1)], saga="order-1"
                )
                await client.settle()
                reply = await client.decide("abort", saga="order-1")
                out["decided"] = sorted(reply["decided"])
                out["steps"] = sorted(tids_of(r1) + tids_of(r2))
                out["compensated"] = sorted(reply["compensated"])
                # Retrying the decision is idempotent: nothing new.
                retry = await client.decide("abort", saga="order-1")
                out["retry_decided"] = list(retry["decided"])
                try:
                    await client.update(
                        [DecrementOp("stock_a", 5)], abort=True
                    )
                    out["probe"] = None
                except LiveETFailed as exc:
                    out["probe"] = (
                        exc.code,
                        exc.compensated,
                        len(exc.compensated_tids),
                    )
                await client.settle()
                out["stock"] = await client.read_many(
                    ["stock_a", "stock_b"]
                )
                if backend == "sharded":
                    await client.close()
                return out
            finally:
                await cluster.stop()

        out = asyncio.run(scenario())
        assert out["decided"] == out["steps"]
        assert out["compensated"] == out["steps"]
        assert out["retry_decided"] == []
        assert out["probe"] == ("COMPENSATED", True, 1)
        assert out["stock"] == {"stock_a": 10, "stock_b": 10}


#: request -> the exception type every backend raises for it, locally.
REFUSALS = {
    "read_many of a bare str": ("read_many", ("acct",), TypeError),
    "query of a bare str": ("query", ("acct",), TypeError),
    "query of bare bytes": ("query", (b"acct",), TypeError),
    "empty update": ("update", ([],), ValueError),
    "empty read_many": ("read_many", ([],), ValueError),
    "empty query": ("query", ([],), ValueError),
}


async def _refusal_program(backend):
    """Malformed requests: a bare string is not a list of keys, and an
    ET needs at least one operation."""
    out = {}
    for name, (verb, args, _) in REFUSALS.items():
        try:
            await backend.call(verb, *args)
        except Exception as exc:
            out[name] = type(exc)
        else:
            out[name] = None
    return out


class TestMalformedRequests:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_refused_alike_on_every_backend(self, backend):
        """Every backend refuses the same malformed requests with the
        same exception type, before anything runs: the live client no
        longer makes a round trip to be refused."""
        assert _run(backend, _refusal_program) == {
            name: expected for name, (_, _, expected) in REFUSALS.items()
        }


class TestSharedFailureTaxonomy:
    def test_both_failures_are_et_errors(self):
        assert issubclass(ETFailed, ETError)
        assert issubclass(LiveETFailed, ETError)

    def test_codes_are_stable_strings(self):
        from repro import (
            ABORTED, COMPENSATED, EPSILON_EXCEEDED, UNAVAILABLE,
        )

        assert UNAVAILABLE == "UNAVAILABLE"
        assert EPSILON_EXCEEDED == "EPSILON_EXCEEDED"
        assert ABORTED == "ABORTED"
        assert COMPENSATED == "COMPENSATED"

    def test_one_except_clause_catches_either(self):
        for exc in (
            LiveETFailed("refused", "UNAVAILABLE"),
            ETError("generic", "ABORTED"),
        ):
            try:
                raise exc
            except ETError as caught:
                assert caught.code in ("UNAVAILABLE", "ABORTED")
            else:  # pragma: no cover
                pytest.fail("ETError clause did not catch %r" % exc)

    def test_unavailable_predicate(self):
        assert LiveETFailed("refused", "UNAVAILABLE").unavailable
        assert not LiveETFailed("other", "ABORTED").unavailable
        assert ETError("x", "ABORTED").aborted

    def test_compensated_predicate(self):
        assert ETError("undone", "COMPENSATED").compensated
        assert not ETError("x", "ABORTED").compensated
        failure = LiveETFailed(
            "undone", "COMPENSATED", {"compensated": ["site0:4"]}
        )
        assert failure.compensated
        assert failure.compensated_tids == ("site0:4",)

    def test_sim_compensated_status_maps_to_typed_code(self):
        """A sim ET that finishes COMPENSATED raises with the same
        stable code the live runtime uses."""
        from repro import ETResult, ETStatus, UpdateET

        result = ETResult(
            et=UpdateET([IncrementOp("k", 1)]), status=ETStatus.COMPENSATED
        )
        exc = ETFailed(result)
        assert exc.code == "COMPENSATED"
        assert exc.compensated
