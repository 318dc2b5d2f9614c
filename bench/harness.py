"""Boots the cluster, drives one workload, measures and checks it.

One process runs one workload: an in-process ``LiveCluster`` (or
``ShardedCluster``) and its clients share one default asyncio loop, the
pattern every ``benchmarks/bench_live_*`` driver uses.  The run is

1. ``n_setups`` complete set-ups, each timed from an empty data dir to
   the end of its warm-up segments; the last one's cluster is measured;
2. a fixed number of measured segments of fixed size, each timed on its
   own, ``snapshot_all()`` between periods;
3. ``settle`` and the correctness gate (:mod:`check`).

See ``README.md`` for why each noise control is there.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import pathlib
import platform
import random
import resource
import shutil
import socket
import statistics
import struct
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.consistency import Consistency, ReadOptions, SessionToken
from repro.core.operations import DecrementOp, IncrementOp
from repro.errors import ETError
from repro.live.cluster import LiveCluster, ShardedCluster
from repro.live.faults import FaultPlan
from repro.live.read_cache import EpsilonReadCache
from repro.obs.registry import Registry

from . import check, trace
from . import metrics as M
from .workloads import (
    CALLERS,
    CONNECTIONS,
    PRELOAD_VALUE,
    RUN_SECONDS,
    SESSION_TOKENS,
    Plan,
    Request,
    Workload,
    key_name,
    make_plan,
)

__all__ = ["RunOptions", "run_workload"]

BENCH_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"

#: epsilon of ``bounded`` reads (loadgen's default).
BOUNDED_EPSILON = 8
#: read-cache size of ``read_mix``: a quarter of its keyspace, so LRU
#: eviction is live.
CACHE_ENTRIES = 512
PRELOAD_CHUNK = 64

_clock = time.perf_counter
_DEVICE_FSYNC = os.fsync
_REQUEST_ERRORS = (ETError, ConnectionError, OSError, asyncio.TimeoutError)


class RunOptions:
    """Sizes of one run; ``quick`` shrinks everything for CI."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        trace: bool,
        quick: bool = False,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.n_setups = 1 if quick else 3
        #: Fixed work: ``workload.segments`` at the manifest's
        #: ``run_seconds``, in proportion (whole snapshot periods) at
        #: another ``--seconds`` -- never the measured pace, so a run
        #: does the same work and ends in the same state on every
        #: commit and host.  --quick: four segments.
        periods = workload.segments // workload.snapshot_every
        self.n_segments = (
            4 if quick
            else max(1, int(periods * seconds / RUN_SECONDS))
            * workload.snapshot_every
        )
        #: keep one root span in this many (and its whole tree).
        self.sample_every = 64


# -- host ----------------------------------------------------------------------


#: The reference host is one on which a tick of the host sampler takes
#: this long (the quiet pace of the 2-core box the benchmark was written
#: on).  It only fixes the unit: every host factor is a tick time over
#: this constant, so changing it rescales every reported time alike.
REFERENCE_TICK_MS = 0.2
#: frames echoed per tick, and how often the loop is asked to tick.
TICK_FRAMES = 16
TICK_PERIOD_S = 0.004
LAG_PERIOD_S = 0.02


class HostSampler:
    """How fast the host runs the program's kind of work, moment by
    moment, measured on the benchmark's own loop.

    The box is two cores of a shared host whose speed moves by up to 2x
    in phases of under a second to minutes (README, "Repeatability"),
    and every wall and CPU time of a window moves with it.  So every few
    milliseconds the loop runs one *tick*: ``TICK_FRAMES`` times, encode
    a small JSON frame, send it over a loopback TCP connection, receive
    it, decode it, store it in a dict -- the primitive every request is
    made of, from the standard library alone, so nothing under ``src/``
    can change what a tick costs.  A window's *host factor* is the mean
    tick that ran inside it over ``REFERENCE_TICK_MS``; reported times
    are measured times divided by that factor (rates multiplied), i.e.
    stated at the reference host's speed, and printed with the value as
    measured beside them.  The ticks' own time is taken out of the
    window's wall and CPU time.
    """

    def __init__(self) -> None:
        #: duration of every tick so far, seconds.
        self.ticks: List[float] = []
        self._handle: Optional[asyncio.TimerHandle] = None
        self._table: Dict[int, Any] = {}
        self._pack = struct.Struct(">IQ").pack
        self._near: Optional[socket.socket] = None
        self._far: Optional[socket.socket] = None

    def start(self) -> None:
        listener = socket.socket()
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            self._near = socket.create_connection(listener.getsockname())
            self._far, _ = listener.accept()
        finally:
            listener.close()
        for sock in (self._near, self._far):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # loopback delivers before send() returns; a tick that ever
            # had to wait would raise instead of stalling the loop.
            sock.settimeout(5.0)
        self._loop = asyncio.get_running_loop()
        self._handle = self._loop.call_later(TICK_PERIOD_S, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        for sock in (self._near, self._far):
            if sock is not None:
                sock.close()
        self._near = self._far = None

    def _tick(self) -> None:
        dumps, loads, pack = json.dumps, json.loads, self._pack
        send, recv, table = self._near.send, self._far.recv, self._table
        started = _clock()
        for i in range(TICK_FRAMES):
            send(dumps({"id": i, "k": "k%04d" % i, "ops": [1, 2, 3]}).encode())
            table[i & 63] = loads(recv(4096))
            pack(i, i)
        self.ticks.append(_clock() - started)
        self._handle = self._loop.call_later(TICK_PERIOD_S, self._tick)

    def mark(self) -> int:
        return len(self.ticks)

    def since(self, mark: int) -> Tuple[float, float]:
        """(host factor, seconds spent ticking) of the ticks since
        ``mark``; the latest tick stands in when none ran since."""
        ticks = self.ticks[mark:]
        basis = ticks or self.ticks[-1:]
        if not basis:
            return 1.0, 0.0
        factor = statistics.fmean(basis) * 1e3 / REFERENCE_TICK_MS
        return factor, sum(ticks)


class LoopLag:
    """How late a 20 ms timer fires on the benchmark's loop -- the wait
    every ready task sees (``host.loop_lag_p95_ms``; traced runs only)."""

    def __init__(self) -> None:
        self.lag_ms: List[float] = []
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._task = asyncio.ensure_future(self._run())

    async def _run(self) -> None:
        while True:
            due = _clock() + LAG_PERIOD_S
            await asyncio.sleep(LAG_PERIOD_S)
            self.lag_ms.append((_clock() - due) * 1e3)

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None


def _fs_type(path: pathlib.Path) -> str:
    """File-system type of the mount holding ``path`` (Linux)."""
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fs_type = mount, fields[2]
    except OSError:
        pass
    return fs_type


def _git_commit(root: pathlib.Path) -> str:
    """HEAD's commit, read from ``.git`` without spawning git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def host_stamp(options: RunOptions, loop_class: str) -> Dict[str, Any]:
    w = options.workload
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loop": loop_class,
        "fs_type": _fs_type(RESULTS_DIR),
        "fsync": "issued" if os.fsync is _DEVICE_FSYNC
        else "counted, not issued",
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "git_commit": _git_commit(BENCH_DIR.parent),
        "seed": options.seed,
        "seconds": options.seconds,
        "sizes": {
            "callers": CALLERS,
            "connections": CONNECTIONS,
            "segment_ops": w.segment_ops,
            "warmup_ops": w.warmup_ops,
            "segments": options.n_segments,
            "snapshot_every": w.snapshot_every,
            "n_keys": w.n_keys,
            "n_setups": options.n_setups,
        },
    }


@contextlib.contextmanager
def device_fsync_skipped() -> Iterator[None]:
    """While active, ``os.fsync`` returns at once in this process.

    The benchmark may write only inside its checkout, so the data root
    is on whatever disk that is, and the device's flush latency (and
    its 9-12 % run-to-run spread) is not a property of the program.
    Every durability code path still runs -- flush, the fsync call, the
    group-commit structure -- and ``fsync_count`` / ``bytes_written``
    still count; only the device wait is gone, exactly as on tmpfs.
    ``run.py`` enters this in the workload's own process, around the
    run and nothing else.
    """
    os.fsync = lambda fd: None  # type: ignore[assignment]
    try:
        yield
    finally:
        os.fsync = _DEVICE_FSYNC


class GcWatch:
    """Time spent in, and number of, collections (``gc.callbacks``)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = _clock()
        else:
            self.seconds += _clock() - self._started
            if info.get("generation") == 2:
                self.gen2 += 1


# -- the system under test -----------------------------------------------------


class Bench:
    """One booted cluster plus the closed-loop callers that drive it."""

    def __init__(self, workload: Workload, data_dir: pathlib.Path) -> None:
        self.workload = workload
        self.data_dir = data_dir
        self.ledger = check.Ledger()
        self.cluster: Any = None
        #: one LiveCluster per replica group (one, or one per shard).
        self.groups: List[LiveCluster] = []
        #: what the callers talk to: LiveClients, or one ShardRouter.
        self.clients: List[Any] = []
        self.tokens = [SessionToken() for _ in range(SESSION_TOKENS)]
        self.cache_registry = Registry(namespace="bench")
        self._read_options = {
            "cached": ReadOptions(consistency=Consistency.CACHED),
            "bounded": ReadOptions(
                consistency=Consistency.BOUNDED(BOUNDED_EPSILON)
            ),
            "strict": ReadOptions(consistency=Consistency.STRICT),
        }
        self._handlers: Dict[str, Callable] = {
            "xfer": self._xfer,
            "inc": self._inc,
            "cached": self._read,
            "bounded": self._read,
            "strict": self._read,
            "session": self._read,
            "many": self._read_many,
        }
        self.reset_window()

    def reset_window(self) -> None:
        """Forget per-window observations (latencies, read routing)."""
        #: latency class ("update", "read", "strict", "hit", "many")
        #: -> seconds.
        self.latencies: Dict[str, List[float]] = {}
        self.window_attempted = 0
        self.window_failed = 0
        self.reads_by_site: Dict[str, int] = {}
        self.query_waits = 0

    # -- lifecycle -------------------------------------------------------------

    async def boot(self) -> None:
        w = self.workload
        if w.cluster == "ordup-sharded":
            self.cluster = ShardedCluster(
                n_shards=2, replicas=2, method="ordup",
                data_dir=self.data_dir, fsync=True,
            )
            await self.cluster.start()
            self.groups = list(self.cluster.groups)
            self.clients = [self.cluster.router()]
            return
        faults = FaultPlan(0) if w.cluster == "commu-faults" else None
        self.cluster = LiveCluster(
            n_sites=3, method="commu", data_dir=self.data_dir, fsync=True,
            faults=faults,
            # Tight reconnect timing (as bench_live_throughput.py), so
            # the post-heal redial is noise, not signal.
            server_options=(
                {"retry_base": 0.005, "retry_max": 0.02} if faults else None
            ),
        )
        await self.cluster.start()
        self.groups = [self.cluster]
        names = self.cluster.names
        for index in range(CONNECTIONS):
            options: Dict[str, Any] = {}
            if w.name == "read_mix":
                options = {
                    "failover": [self.cluster.addrs[n] for n in names[1:]],
                    "cache": EpsilonReadCache(
                        max_entries=CACHE_ENTRIES, ttl=3600.0,
                        registry=self.cache_registry,
                    ),
                    "fan_out": True,
                    # a constant, not the seed: the program under test
                    # sees only the generated requests.
                    "rng": random.Random(index),
                }
            self.clients.append(
                await self.cluster.client(names[0], **options)
            )

    async def preload(self) -> None:
        """Give every data key its starting value through the client."""
        client = self.clients[0]
        keys = [key_name(i) for i in range(self.workload.n_keys)]
        for start in range(0, len(keys), PRELOAD_CHUNK):
            await client.update(
                [
                    IncrementOp(key, PRELOAD_VALUE)
                    for key in keys[start:start + PRELOAD_CHUNK]
                ]
            )
        self.ledger.preload_total = len(keys) * PRELOAD_VALUE

    async def stop(self) -> None:
        if self.cluster is not None:
            await self.cluster.stop()
            self.cluster = None

    async def settle(self) -> None:
        await self.cluster.settle(timeout=120.0)

    async def snapshot_all(self) -> int:
        """Snapshot + compact every replica; records compacted away."""
        compacted = 0
        for group in self.groups:
            for reply in (await group.snapshot_all()).values():
                compacted += int(reply.get("compacted", 0))
        return compacted

    def partition(self) -> None:
        names = self.cluster.names
        self.cluster.partition([[names[0]], names[1:]])

    def heal(self) -> None:
        self.cluster.heal()

    async def final_values(self) -> List[check.GroupValues]:
        return [await group.site_values() for group in self.groups]

    # -- requests --------------------------------------------------------------

    async def run_requests(self, requests: Sequence[Request]) -> None:
        """Closed loop: ``CALLERS`` callers share the plan, each sending
        its next request only when its previous one completed."""
        pending = enumerate(requests)
        clients = self.clients
        n_clients = len(clients)

        async def caller() -> None:
            for index, request in pending:
                await self._one(clients[index % n_clients], request)

        await asyncio.gather(*(caller() for _ in range(CALLERS)))

    async def _one(self, client: Any, request: Request) -> None:
        self.window_attempted += 1
        started = _clock()
        try:
            latency_class = await self._handlers[request[0]](client, request)
        except _REQUEST_ERRORS as exc:
            self.window_failed += 1
            code = getattr(exc, "code", "") or type(exc).__name__
            errors = self.ledger.errors
            errors[code] = errors.get(code, 0) + 1
            return
        elapsed = _clock() - started
        self.latencies.setdefault(latency_class, []).append(elapsed)

    async def _xfer(self, client: Any, request: Request) -> str:
        await client.update(
            [
                DecrementOp(request[1], 1),
                IncrementOp(request[2], 1),
                IncrementOp(request[3], 1),
            ]
        )
        self.ledger.acked_transfers += 1
        return "update"

    async def _inc(self, client: Any, request: Request) -> str:
        frame = await client.increment(request[1])
        self.ledger.acked_increments += 1
        if request[2] >= 0:
            self.tokens[request[2]].observe_write(frame.get("tid", ""))
        return "update"

    async def _read(self, client: Any, request: Request) -> str:
        kind = request[0]
        issued_with: Optional[Dict[str, int]] = None
        if kind == "session":
            token = self.tokens[request[2]]
            issued_with = dict(token.frontiers)
            options = ReadOptions(
                consistency=Consistency.SESSION, session=token
            )
        else:
            options = self._read_options[kind]
        result = await client.query([request[1]], options)
        if kind == "bounded" and result.inconsistency > BOUNDED_EPSILON:
            self.ledger.bounded_violations += 1
        if result.from_cache:
            return "hit"
        if issued_with:
            served = result.frontiers
            if any(served.get(s, 0) < seq for s, seq in issued_with.items()):
                self.ledger.session_violations += 1
        site = result.served_by or "unknown"
        self.reads_by_site[site] = self.reads_by_site.get(site, 0) + 1
        self.query_waits += result.waits
        # Strict reads wait for in-flight updates to be fully acked:
        # a second, slower mode that would sit right at the p95 of a
        # single "read" class.
        return "strict" if kind == "strict" else "read"

    async def _read_many(self, client: Any, request: Request) -> str:
        result = await client.query(
            list(request[1:]), self._read_options["strict"]
        )
        self.query_waits += result.waits
        return "many"

    # -- counters the system already exposes -----------------------------------

    async def counters(self) -> Dict[str, float]:
        """Sums over every replica of the families the ``metrics`` verb
        exposes, plus the clients' cache and session counters."""
        out: Dict[str, float] = {}

        def add(key: str, amount: float) -> None:
            out[key] = out.get(key, 0.0) + amount

        for group in self.groups:
            for reply in (await group.site_metrics()).values():
                families = reply["metrics"]
                for name, key in (
                    ("repro_log_fsync_total", "fsyncs"),
                    ("repro_log_fsync_seconds_total", "fsync_seconds"),
                    ("repro_log_bytes_total", "log_bytes"),
                ):
                    for sample in families.get(name, {}).get("samples", ()):
                        add(key, sample["value"])
                for name, key in (
                    ("repro_batch_msets", "frames"),
                    ("repro_ack_latency_seconds", "acks"),
                    ("repro_apply_batch_seconds", "applies"),
                ):
                    for sample in families.get(name, {}).get("samples", ()):
                        add(key + "_sum", sample["sum"])
                        add(key + "_count", sample["count"])
        for client in self.clients:
            cache = getattr(client, "cache", None)
            if cache is not None:
                stats = cache.stats()
                add("cache_hits", stats["hits"])
                add("cache_misses", stats["misses"])
                add("cache_evictions", stats["evictions"])
            add(
                "session_stale_retries",
                getattr(client, "session_stale_retries", 0),
            )
        add(
            "cache_over_budget",
            self.cache_registry.get_sample(
                "read_cache_misses_total", reason="over_budget"
            ) or 0,
        )
        return out


# -- measurement ---------------------------------------------------------------


class Window:
    """One timed window (a segment, or one drain) and what it saw."""

    def __init__(self, index: int, traced: bool) -> None:
        self.index = index
        self.traced = traced
        self.ops = 0
        #: host factor (:class:`HostSampler`) of the timed window, and
        #: of the period its latencies were taken in: the partitioned
        #: build on ``drain_backlog``, the window itself elsewhere.
        self.host = 1.0
        self.latency_host = 1.0
        #: the window's wall and CPU seconds as measured, the sampler's
        #: own ticks taken out ...
        self.measured_wall = 0.0
        self.measured_cpu = 0.0
        #: ... and at the reference host's speed, like every other time
        #: below (settle, gc, span aggregates, time-valued counters).
        self.wall = 0.0
        self.cpu = 0.0
        self.settle_ms = 0.0
        self.attempted = 0
        self.failed = 0
        self.latencies: Dict[str, List[float]] = {}
        self.reads_by_site: Dict[str, int] = {}
        self.query_waits = 0
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        #: deltas over the window: span aggregates and system counters.
        self.spans: Dict[str, Tuple[float, ...]] = {}
        self.counters: Dict[str, float] = {}

    @property
    def ops_s(self) -> float:
        return self.ops / self.wall if self.wall > 0 else 0.0

    def latency_ms(
        self, latency_class: str, q: float, measured: bool = False
    ) -> float:
        value = M.percentile(self.latencies.get(latency_class, ()), q) * 1e3
        return value if measured else value / self.latency_host

    def end_to_end(self, primary: str, measured: bool = False) -> Dict[str, float]:
        """The window's four timed end-to-end metrics, at the reference
        host's speed or (``measured``) as the clock read them."""
        wall, cpu = (
            (self.measured_wall, self.measured_cpu) if measured
            else (self.wall, self.cpu)
        )
        return {
            "ops_s": self.ops / wall if wall > 0 else 0.0,
            "p50_ms": self.latency_ms(primary, 0.50, measured),
            "p95_ms": self.latency_ms(primary, 0.95, measured),
            "cpu_us_per_op": cpu / self.ops * 1e6 if self.ops else 0.0,
        }


#: counters of :meth:`Bench.counters` that are sums of seconds.
_TIME_COUNTERS = ("fsync_seconds", "acks_sum", "applies_sum")


def _delta(
    after: Dict[str, Any], before: Dict[str, Any], host: float
) -> Dict[str, Any]:
    """``after - before``, its times (the WALL, RUN and SELF slots of a
    span aggregate, the time-valued counters) divided by ``host``."""
    out: Dict[str, Any] = {}
    for key, value in after.items():
        prior = before.get(key)
        if isinstance(value, tuple):
            prior = prior or (0,) * len(value)
            out[key] = tuple(
                (a - b) / host if trace.WALL <= slot <= trace.SELF else a - b
                for slot, (a, b) in enumerate(zip(value, prior))
            )
        else:
            scale = host if key in _TIME_COUNTERS else 1.0
            out[key] = (value - (prior or 0)) / scale
    return out


class Measurement:
    """Runs the measured windows of one booted :class:`Bench`."""

    def __init__(
        self,
        bench: Bench,
        options: RunOptions,
        sampler: Optional[HostSampler] = None,
    ) -> None:
        self.bench = bench
        self.options = options
        #: without a running sampler every host factor is 1.
        self.sampler = sampler or HostSampler()
        self.workload = bench.workload
        self.windows: List[Window] = []
        self.snapshot_ms: List[float] = []
        self.compacted: List[int] = []
        self.tracer = (
            trace.Tracer(options.sample_every) if options.trace else None
        )
        self.gc_watch = GcWatch() if options.trace else None
        self.loop_lag = LoopLag() if options.trace else None

    async def run(self, plan: Plan) -> None:
        w = self.workload
        options = self.options
        if self.gc_watch is not None:
            gc.callbacks.append(self.gc_watch)
        if self.loop_lag is not None:
            self.loop_lag.start()
        try:
            for index, requests in enumerate(plan["segments"]):
                # A traced run alternates untraced and traced windows,
                # so its tracing overhead is a paired comparison.
                traced = options.trace and index % 2 == 1
                self.windows.append(await self._window(index, requests, traced))
                if (index + 1) % w.snapshot_every == 0:
                    mark = self.sampler.mark()
                    snap_started = _clock()
                    self.compacted.append(await self.bench.snapshot_all())
                    elapsed = _clock() - snap_started
                    host, _ = self.sampler.since(mark)
                    self.snapshot_ms.append(elapsed * 1e3 / host)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            if self.loop_lag is not None:
                await self.loop_lag.stop()
            if self.gc_watch is not None:
                gc.callbacks.remove(self.gc_watch)

    async def _window(
        self, index: int, requests: Sequence[Request], traced: bool
    ) -> Window:
        bench = self.bench
        sampler = self.sampler
        window = Window(index, traced)
        drain = self.workload.unit == "MSet"
        gc.collect()
        bench.reset_window()
        if drain:
            # Build the backlog behind a partition; only the heal ->
            # settle drain below is the timed window.
            bench.partition()
            mark = sampler.mark()
            await bench.run_requests(requests)
            window.latency_host, _ = sampler.since(mark)
            gc.collect()
        counters = await bench.counters() if self.options.trace else {}
        if traced:
            self.tracer.install()
            spans = self.tracer.snapshot()
        if self.gc_watch is not None:
            gc_seconds, gc_gen2 = self.gc_watch.seconds, self.gc_watch.gen2
        mark = sampler.mark()
        wall_started = _clock()
        cpu_started = time.process_time()
        try:
            if drain:
                bench.heal()
            else:
                await bench.run_requests(requests)
            settle_started = _clock()
            await bench.settle()
            wall_ended = _clock()
            cpu_ended = time.process_time()
        finally:
            host, ticking = sampler.since(mark)
            if traced:
                window.spans = _delta(self.tracer.snapshot(), spans, host)
                self.tracer.uninstall()
        window.host = host
        if not drain:
            window.latency_host = host
        window.measured_wall = wall_ended - wall_started - ticking
        window.measured_cpu = cpu_ended - cpu_started - ticking
        window.wall = window.measured_wall / host
        window.cpu = window.measured_cpu / host
        window.settle_ms = (wall_ended - settle_started) * 1e3 / host
        if self.gc_watch is not None:
            window.gc_seconds = (self.gc_watch.seconds - gc_seconds) / host
            window.gc_gen2 = self.gc_watch.gen2 - gc_gen2
        if self.options.trace:
            window.counters = _delta(await bench.counters(), counters, host)
        window.attempted = bench.window_attempted
        window.failed = bench.window_failed
        acked = window.attempted - window.failed
        # each acked update crosses both peer channels of site0
        window.ops = 2 * acked if drain else acked
        window.latencies = bench.latencies
        window.reads_by_site = bench.reads_by_site
        window.query_waits = bench.query_waits
        bench.ledger.attempted += window.attempted
        bench.ledger.failed += window.failed
        return window


async def _set_up(
    workload: Workload, plan: Plan, data_dir: pathlib.Path
) -> Bench:
    """One complete set-up, from an empty data dir to a warm cluster."""
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir(parents=True)
    bench = Bench(workload, data_dir)
    try:
        await bench.boot()
        await bench.preload()
        await bench.settle()
        await bench.snapshot_all()
        for requests in plan["warmup"]:
            bench.reset_window()
            if workload.unit == "MSet":
                bench.partition()
                await bench.run_requests(requests)
                bench.heal()
            else:
                await bench.run_requests(requests)
            await bench.settle()
            bench.ledger.attempted += bench.window_attempted
            bench.ledger.failed += bench.window_failed
    except BaseException:
        await bench.stop()
        raise
    return bench


async def _run(options: RunOptions, data_root: pathlib.Path) -> Dict[str, Any]:
    workload = options.workload
    plan = make_plan(workload, options.seed, options.n_segments)
    #: every set-up's (seconds at the reference host, as measured).
    setup_s: List[Tuple[float, float]] = []
    bench: Optional[Bench] = None
    sampler = HostSampler()
    try:
        sampler.start()
        for index in range(options.n_setups):
            if bench is not None:
                await bench.stop()
            gc.collect()
            mark = sampler.mark()
            started = _clock()
            bench = await _set_up(
                workload, plan, data_root / ("setup%d" % index)
            )
            elapsed = _clock() - started
            # A set-up also waits (boot, connect), so its ticks are not
            # all time taken from it: they stay in.
            host, _ = sampler.since(mark)
            setup_s.append((elapsed / host, elapsed))
        assert bench is not None
        gc.collect()
        gc.freeze()
        measurement = Measurement(bench, options, sampler)
        await measurement.run(plan)
        await bench.settle()
        problems = check.verify(await bench.final_values(), bench.ledger)
    finally:
        sampler.stop()
        if bench is not None:
            await bench.stop()
    return {
        "loop": type(asyncio.get_running_loop()).__name__,
        "setup_s": setup_s,
        "measurement": measurement,
        "ledger": bench.ledger,
        "problems": problems,
    }


# -- reporting -----------------------------------------------------------------


def end_to_end(
    workload: Workload,
    windows: Sequence[Window],
    setup_s: Sequence[Tuple[float, float]],
) -> Dict[str, Dict[str, float]]:
    """The six end-to-end metrics, each with its quartiles over the
    run's windows (``median`` is the reported value) and, under
    ``measured``, the median of the same as the clock read it."""
    primary = workload.primary
    rows = [w.end_to_end(primary) for w in windows]
    measured = [w.end_to_end(primary, measured=True) for w in windows]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    columns = {
        "setup_s": ([s[0] for s in setup_s], [s[1] for s in setup_s]),
        "rss_mb": ([rss_mb], [rss_mb]),
    }
    for name in ("ops_s", "p50_ms", "p95_ms", "cpu_us_per_op"):
        columns[name] = ([r[name] for r in rows], [r[name] for r in measured])
    return {
        name: dict(
            M.quartiles(columns[name][0]),
            measured=M.quartiles(columns[name][1])["median"],
        )
        for name in (m.name for m in M.END_TO_END)
    }


def _window_row(workload: Workload, window: Window) -> Dict[str, Any]:
    """One window's own numbers, for the results file."""
    return {
        "index": window.index,
        "traced": window.traced,
        "ops": window.ops,
        "host": window.host,
        "latency_host": window.latency_host,
        "measured_wall_s": window.measured_wall,
        "measured_cpu_s": window.measured_cpu,
        "settle_ms": window.settle_ms,
        "measured": window.end_to_end(workload.primary, measured=True),
        **window.end_to_end(workload.primary),
    }


def host_unsteady(windows: Sequence[Window]) -> bool:
    """True when the host factor drifted by more than 5 % between the
    first and the last quarter of the run's windows (diagnostic only)."""
    hosts = [w.host for w in windows]
    quarter = max(1, len(hosts) // 4)
    first = M.quartiles(hosts[:quarter])["median"]
    last = M.quartiles(hosts[-quarter:])["median"]
    return abs(last - first) / first > 0.05


def run_workload(options: RunOptions) -> Dict[str, Any]:
    """Run one workload in this process; returns the full report."""
    data_root = RESULTS_DIR / "data" / (
        "%s-%d" % (options.workload.name, os.getpid())
    )
    try:
        outcome = asyncio.run(_run(options, data_root))
    finally:
        shutil.rmtree(data_root, ignore_errors=True)
    measurement: Measurement = outcome["measurement"]
    ledger: check.Ledger = outcome["ledger"]
    windows = measurement.windows
    untraced = [w for w in windows if not w.traced]
    report: Dict[str, Any] = {
        "workload": options.workload.name,
        "trace": options.trace,
        "host": host_stamp(options, outcome["loop"]),
        "host_unsteady": host_unsteady(windows),
        "host_factor": M.quartiles([w.host for w in windows]),
        "segments": len(windows),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": outcome["problems"],
        "correct": not outcome["problems"],
        "end_to_end": end_to_end(options.workload, untraced, outcome["setup_s"]),
        "setup_s": [s[0] for s in outcome["setup_s"]],
        "measured_setup_s": [s[1] for s in outcome["setup_s"]],
        "windows": [_window_row(options.workload, w) for w in windows],
    }
    if options.trace:
        report["per_layer"] = M.per_layer(options.workload, measurement)
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        report["spans_written"] = measurement.tracer.write_spans(
            RESULTS_DIR / ("trace-%s.jsonl" % options.workload.name)
        )
    return report
